package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"portcc/internal/dataset"
	"portcc/internal/features"
	"portcc/internal/ml"
	"portcc/internal/opt"
	"portcc/internal/serve"
	"portcc/internal/uarch"
)

// Query classes of the serve workload's seeded mix.
const (
	classCached   = iota // program query on the pre-warmed working set
	classFresh           // program query on a (program, arch) pair not seen before
	classFeatures        // raw feature vector
	classInvalid         // unknown program or illegal arch: expects a 4xx
)

const (
	// workingArchs is the working set's architecture count per program.
	workingArchs = 8
	// roundSize is the number of requests one timed round issues.
	roundSize = 1000
	// maxRate bounds the requests generated per measuring second; a
	// loop that exhausts them stops early.
	maxRate = 5000
	// setups is how many times the server is brought up per run.
	setups = 3
)

// query is one request of the mix.
type query struct {
	class int
	prog  int          // program index (program classes)
	arch  uarch.Config // profiled architecture (program classes)
	x     []float64    // feature vector (features class)
	body  []byte
}

// outcome is what the client saw for one request.
type outcome struct {
	status int
	key    string
	cached bool
	lat    time.Duration
}

// runServe measures the prediction server under a closed loop of one
// keep-alive client per core. Set-up trains the model on the grid's
// dataset and saves it as an artifact; each of several set-ups then
// starts a server on it and warms the working set. The timed loop runs
// rounds of roundSize requests; afterwards every response is checked
// against predictions made in process on independently measured
// features.
func runServe(o options) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	cfg := genConfig(o)
	ds, err := dataset.GenerateWith(ctx, cfg, dataset.ExploreOptions{})
	if err != nil {
		return nil, err
	}
	pairs, err := ds.TrainingPairs()
	if err != nil {
		return nil, err
	}
	model := ml.Train(pairs)
	fp, err := ds.Fingerprint()
	if err != nil {
		return nil, err
	}
	nP, nA, nO := ds.Dims()
	eval := dataset.EvalConfig{TargetInsns: cfg.Eval.TargetInsns, MaxInsns: cfg.Eval.MaxInsns, Seed: cfg.Eval.Seed}
	artifact := filepath.Join(o.workDir, "model.gob")
	if err := ml.Save(artifact, model, ml.ArtifactInfo{
		DatasetSHA256: fp, TrainConfig: cfg.Describe(),
		Programs: nP, Archs: nA, Opts: nO, Seed: cfg.Seed,
		EvalTargetInsns: eval.TargetInsns, EvalMaxInsns: eval.MaxInsns, EvalSeed: eval.Seed,
		Pairs: len(pairs),
	}); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(o.seed))
	working := uarch.Space{}.SampleN(rng, workingArchs)
	warm := make([]query, 0, nP*workingArchs)
	for p := range ds.Programs {
		for _, a := range working {
			warm = append(warm, programQuery(classCached, p, ds.Programs[p], a))
		}
	}
	qs := makeQueries(rng, ds, working, int(o.seconds*maxRate)+roundSize)
	ref := newReference(eval, model, ds.Programs)

	// Set-up: start a server on the artifact and warm the working set.
	clients := runtime.GOMAXPROCS(0)
	var setupTimes []float64
	var srv *server
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		s, err := startServer(artifact, clients)
		if err != nil {
			return nil, err
		}
		outs := s.issue(warm, clients)
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		bad := ref.verify(warm, outs)
		rep.ops(int64(len(warm)), int64(bad))
		if i < setups-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv = s
	}

	// The timed loop runs whole rounds, at least one. The traced run is
	// this same loop: per-layer figures come from the client's own
	// latencies and the server's Stats, read around the first round,
	// whose requests the seed fixes, outside the timed region.
	outs := make([]outcome, len(qs))
	var rounds []float64
	var work [2]dataset.Stats
	n := 0
	rss := startRSS()
	defer rss.close()
	start := time.Now()
	for n == 0 || (time.Since(start).Seconds() < o.seconds && n+roundSize <= len(qs)) {
		if n == 0 {
			work[0] = srv.s.Stats()
		}
		rss.begin(false)
		t := time.Now()
		copy(outs[n:], srv.issue(qs[n:n+roundSize], clients))
		rounds = append(rounds, time.Since(t).Seconds())
		rss.end()
		if n == 0 {
			work[1] = srv.s.Stats()
		}
		n += roundSize
	}
	mean, peak := rss.close()
	if err := srv.stop(); err != nil {
		return nil, err
	}
	if o.trace {
		fillServeLayers(rep.layer, qs[:n], outs[:n], sum(rounds), work[0], work[1])
	}

	// Every request issued is checked.
	bad := ref.verify(qs[:n], outs[:n])
	rep.ops(int64(n), int64(bad))
	rep.check(bad == 0, "serve: %d of %d responses differ from the in-process reference", bad, n)

	lats := latenciesMS(outs[:n], func(int) bool { return true })
	rep.e2e["setup_s"] = median(setupTimes)
	rep.e2e["rss_mb"] = mean
	rep.note("peak_rss_mb", "MB", peak)
	rep.e2e["job_s"] = median(rounds)
	rep.note("throughput_rps", "requests/s", float64(n)/sum(rounds))
	rep.note("latency_p50_ms", "ms", quantile(lats, 0.5))
	rep.note("latency_p99_ms", "ms", quantile(lats, 0.99))
	rep.note("requests", "count", float64(n))
	return rep, nil
}

// programQuery builds a program query on an architecture.
func programQuery(class, p int, name string, a uarch.Config) query {
	spec := serve.ArchSpec{
		IL1Size: a.IL1Size, IL1Assoc: a.IL1Assoc, IL1Block: a.IL1Block,
		DL1Size: a.DL1Size, DL1Assoc: a.DL1Assoc, DL1Block: a.DL1Block,
		BTBSize: a.BTBSize, BTBAssoc: a.BTBAssoc, FreqMHz: a.FreqMHz, Width: a.Width,
	}
	body, _ := json.Marshal(serve.PredictRequest{Program: name, Arch: &spec}) // plain struct: cannot fail
	return query{class: class, prog: p, arch: a, body: body}
}

// makeQueries draws n requests of the mix: 80% working-set program
// queries, 10% program queries on fresh architectures, 5% feature
// vectors (a dataset vector with 5% noise per dimension) and 5% invalid
// requests. The proportions are assumed: no recorded traffic exists to
// take them from.
func makeQueries(rng *rand.Rand, ds *dataset.Dataset, working []uarch.Config, n int) []query {
	qs := make([]query, n)
	for i := range qs {
		u := rng.Float64()
		p := rng.Intn(len(ds.Programs))
		switch {
		case u < 0.80:
			qs[i] = programQuery(classCached, p, ds.Programs[p], working[rng.Intn(len(working))])
		case u < 0.90:
			qs[i] = programQuery(classFresh, p, ds.Programs[p], uarch.Space{}.Sample(rng))
		case u < 0.95:
			src := ds.Features[p][rng.Intn(len(ds.Archs))]
			x := make([]float64, len(src))
			for d := range x {
				x[d] = src[d] * (1 + 0.05*rng.NormFloat64())
			}
			body, _ := json.Marshal(serve.PredictRequest{Features: x}) // plain struct: cannot fail
			qs[i] = query{class: classFeatures, x: x, body: body}
		default:
			body := `{"program":"` + ds.Programs[p] + `","arch":{"il1_size":3}}`
			if rng.Intn(2) == 0 {
				body = `{"program":"no_such_program","arch":{}}`
			}
			qs[i] = query{class: classInvalid, body: []byte(body)}
		}
	}
	return qs
}

// reference answers queries in process: features of program queries
// come from its own evaluator, predictions from the trained model.
type reference struct {
	ev    *dataset.Evaluator
	model *ml.Model
	progs []string
}

func newReference(eval dataset.EvalConfig, model *ml.Model, progs []string) *reference {
	return &reference{ev: dataset.NewEvaluator(eval), model: model, progs: progs}
}

// key is the model's prediction for a feature vector.
func (r *reference) key(x []float64) string {
	c := r.model.Predict(x)
	return c.Key()
}

// verify counts the outcomes that differ from the in-process answer.
func (r *reference) verify(qs []query, outs []outcome) int {
	want := make([]string, len(qs))
	byProg := map[int][]int{}
	for i, q := range qs {
		switch q.class {
		case classCached, classFresh:
			byProg[q.prog] = append(byProg[q.prog], i)
		case classFeatures:
			want[i] = r.key(q.x)
		}
	}
	o3 := opt.O3()
	failed := 0
	for p, idx := range byProg {
		tr, _, err := r.ev.Trace(r.progs[p], &o3)
		if err != nil {
			failed += len(idx)
			continue
		}
		archs := make([]uarch.Config, len(idx))
		for k, i := range idx {
			archs[k] = qs[i].arch
		}
		for k, res := range r.ev.SimulateBatch(tr, archs) {
			want[idx[k]] = r.key(features.Vector(archs[k], &res))
		}
	}
	for i, q := range qs {
		out := outs[i]
		var ok bool
		if q.class == classInvalid {
			ok = out.status >= 400 && out.status < 500 && out.status != http.StatusTooManyRequests
		} else {
			ok = out.status == http.StatusOK && out.key == want[i]
		}
		if !ok {
			failed++
		}
	}
	return failed
}

// server is one prediction server on loopback with its client.
type server struct {
	s      *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan error
}

func startServer(artifact string, clients int) (*server, error) {
	s, err := serve.New(serve.Config{ModelPath: artifact})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &server{
		s:    s,
		hs:   &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String() + "/v1/predict",
		done: make(chan error, 1),
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
		},
	}
	go func() { srv.done <- srv.hs.Serve(ln) }()
	return srv, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// issue sends the queries over a closed loop of the given number of
// clients and returns the outcomes in query order.
func (s *server) issue(qs []query, clients int) []outcome {
	outs := make([]outcome, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(qs) {
					return
				}
				outs[i] = s.do(qs[i].body)
			}
		}()
	}
	wg.Wait()
	return outs
}

// do sends one request; the latency ends when the body has been read.
func (s *server) do(body []byte) outcome {
	t := time.Now()
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{status: -1, lat: time.Since(t)}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := outcome{status: resp.StatusCode, lat: time.Since(t)}
	if err != nil {
		out.status = -1
		return out
	}
	if resp.StatusCode == http.StatusOK {
		var pr serve.PredictResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			out.status = -1
			return out
		}
		out.key, out.cached = pr.ConfigKey, pr.Cached
	}
	return out
}

// latenciesMS returns the latencies in milliseconds of the outcomes
// whose query passes keep.
func latenciesMS(outs []outcome, keep func(i int) bool) []float64 {
	var l []float64
	for i, o := range outs {
		if keep(i) {
			l = append(l, float64(o.lat.Nanoseconds())/1e6)
		}
	}
	return l
}

// fillServeLayers writes the serve workload's per-layer metrics for the
// timed loop. The server's work counters are those of its first round
// (before to after); shed requests are counted per round. Both are
// counts per roundSize requests, so they do not depend on how many
// rounds fit in the measuring time. Serve adds no instrumentation of
// its own, so it reports no bench.trace_overhead.
func fillServeLayers(m map[string]float64, qs []query, outs []outcome, wall float64, before, after dataset.Stats) {
	isProgram := func(i int) bool {
		return (qs[i].class == classCached || qs[i].class == classFresh) && outs[i].status == http.StatusOK
	}
	cached := latenciesMS(outs, func(i int) bool { return isProgram(i) && outs[i].cached })
	profiled := latenciesMS(outs, func(i int) bool { return isProgram(i) && !outs[i].cached })
	feats := latenciesMS(outs, func(i int) bool { return qs[i].class == classFeatures })
	all := latenciesMS(outs, func(int) bool { return true })
	shed := 0
	for _, o := range outs {
		if o.status == http.StatusTooManyRequests {
			shed++
		}
	}
	m["serve.throughput_rps"] = float64(len(outs)) / wall
	m["serve.latency_p50_ms"] = quantile(all, 0.5)
	m["serve.latency_p99_ms"] = quantile(all, 0.99)
	m["serve.cached_us_p50"] = quantile(cached, 0.5) * 1e3
	m["serve.profiled_ms_p50"] = quantile(profiled, 0.5)
	m["serve.features_us_p50"] = quantile(feats, 0.5) * 1e3
	m["serve.cache_hit_ratio"] = float64(len(cached)) / float64(len(cached)+len(profiled))
	m["serve.shed"] = float64(shed) * roundSize / float64(len(outs))
	m["cpu.simulations"] = float64(after.Simulations - before.Simulations)
	m["trace.gens"] = float64(after.TraceGens - before.TraceGens)
	m["trace.events"] = float64(after.TraceEvents - before.TraceEvents)
	m["core.compiles"] = float64(after.Compiles - before.Compiles)
	m["core.pass_runs"] = float64(after.PassRuns - before.PassRuns)
}
