// Command pipebench is the repository's end-to-end benchmark. It drives
// the portcc pipeline through three workloads and prints, as the last
// line of standard output, one JSON object with the run's correctness
// verdict and its metrics:
//
//	generate      dataset.GenerateWith over the small grid, then train,
//	              leave-one-out prediction and Figure 6, in process
//	fleet_resume  a shard fleet resuming a half-finished generation
//	              against a shared result-store service on loopback
//	serve         a closed loop of seeded queries against the HTTP
//	              prediction server
//
// With -trace 0 the metrics are the end-to-end ones, measured without
// instrumentation; with -trace 1 they are the per-layer ones, measured
// by timing calls into each layer's public functions from this package.
// Every workload derives its inputs from -seed; seed 11 is the small
// scale of internal/experiments. See README.md for how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"

	"portcc/internal/experiments"
	"portcc/internal/ml"
)

func init() { ml.PinGobTypes() }

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spec names a metric and its unit.
type spec struct{ name, unit string }

// endToEnd are the metrics every workload reports from an untraced run.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"rss_mb", "MB"},
	{"job_s", "s"},
}

// perLayer are the metrics every workload reports from a traced run. A
// workload that does not exercise a layer reports its metrics as 0.
var perLayer = []spec{
	{"core.compile_s", "s"},
	{"core.compiles", "count"},
	{"core.pass_runs", "count"},
	{"core.pass_runs_saved", "count"},
	{"core.ns_per_pass_run", "ns"},
	{"trace.gen_s", "s"},
	{"trace.gens", "count"},
	{"trace.events", "count"},
	{"trace.reuses", "count"},
	{"trace.ns_per_event", "ns"},
	{"cpu.replay_s", "s"},
	{"cpu.simulations", "count"},
	{"cpu.mevc_per_s", "Mevc/s"},
	{"ml.train_s", "s"},
	{"ml.predict_us_p50", "us"},
	{"ml.predict_us_p99", "us"},
	{"experiments.loo_s", "s"},
	{"experiments.percent_of_max", "%"},
	{"experiments.slowdowns_vs_o3", "count"},
	{"store.get_us_p50", "us"},
	{"store.get_us_p99", "us"},
	{"store.put_us_p50", "us"},
	{"store.put_us_p99", "us"},
	{"store.hit_ratio", "ratio"},
	{"store.gets", "count"},
	{"store.puts", "count"},
	{"store.errors", "count"},
	{"sched.cell_ms_p50", "ms"},
	{"sched.cell_ms_p99", "ms"},
	{"sched.shard_busy_fraction", "ratio"},
	{"wire.bytes_per_cell", "bytes"},
	{"serve.throughput_rps", "1/s"},
	{"serve.latency_p50_ms", "ms"},
	{"serve.latency_p99_ms", "ms"},
	{"serve.cached_us_p50", "us"},
	{"serve.profiled_ms_p50", "ms"},
	{"serve.features_us_p50", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.shed", "count"},
	{"bench.unattributed_s", "s"},
	{"bench.trace_overhead", "ratio"},
	{"bench.failed_fraction", "ratio"},
}

// options are one run's inputs.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// scale sizes the grid: the small scale, or tiny in the smoke tests.
	scale experiments.Scale
	// workDir holds the run's scratch files (store directories, model
	// artifact); it is removed when the run ends.
	workDir string
	// counters, when set, is the BENCH_generate.json whose work counters
	// the traced generate run must reproduce at the small scale, seed 11.
	counters string
}

// report is what a workload measured.
type report struct {
	// e2e holds the end-to-end metrics (untraced run), layer the
	// per-layer metrics (traced run).
	e2e, layer map[string]float64
	// detail holds the workload's own end-to-end figures (generate_s,
	// resume_s, latency percentiles, ...), printed as a line of their
	// own before the result.
	detail []namedValue
	// attempted and failed count operations (cells, store requests,
	// HTTP requests) and correctness checks.
	attempted, failed int64
	problems          []string
}

type namedValue struct {
	name, unit string
	value      float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records one correctness check.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// ops records operations performed and how many of them failed.
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

func (r *report) note(name, unit string, v float64) {
	r.detail = append(r.detail, namedValue{name, unit, v})
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*report, error){
	"generate":     runGenerate,
	"fleet_resume": runFleetResume,
	"serve":        runServe,
}

func main() {
	workload := flag.String("workload", "", "generate | fleet_resume | serve")
	seed := flag.Int64("seed", 11, "input seed (11 reproduces the small scale)")
	seconds := flag.Float64("seconds", 10, "measuring time per run")
	traceMode := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if *traceMode != 0 && *traceMode != 1 {
		fail(fmt.Errorf("-trace is %d, want 0 or 1", *traceMode))
	}
	run, ok := workloads[*workload]
	if !ok {
		fail(fmt.Errorf("unknown -workload %q", *workload))
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fail(err)
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fail(err)
	}
	o := options{
		seed: *seed, seconds: *seconds, trace: *traceMode == 1,
		scale: experiments.Small, workDir: work, counters: "BENCH_generate.json",
	}
	rep, err := run(o)
	os.RemoveAll(work)
	if err != nil {
		fail(err)
	}
	res, err := finish(rep, o.trace)
	if err != nil {
		fail(err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pipebench:", err)
	os.Exit(1)
}

// finish prints the workload's own figures and problems and assembles
// the result line: every declared metric of the mode, a layer the
// workload did not exercise reading 0.
func finish(rep *report, traced bool) (result, error) {
	for _, d := range rep.detail {
		fmt.Printf("%-32s %14.6g %s\n", d.name, d.value, d.unit)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("workload attempted nothing")
	}
	specs, got := endToEnd, rep.e2e
	if traced {
		specs, got = perLayer, rep.layer
		got["bench.failed_fraction"] = float64(rep.failed) / float64(rep.attempted)
	}
	for _, s := range specs {
		v := got[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", s.name, v)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	return res, nil
}

// rssMeter samples the process's resident set while jobs run and keeps
// each job's mean and peak. The mean is the steadier of the two: a
// peak is one sample, and which collection cycle it lands on moves it
// by ±10-20% from run to run.
type rssMeter struct {
	mu           sync.Mutex
	samples      []float64 // the current job's; nil between jobs
	means, peaks []float64
	stop         chan struct{}
	done         chan struct{}
	once         sync.Once
}

// rssEvery is the sampling period of an rssMeter.
const rssEvery = 5 * time.Millisecond

func startRSS() *rssMeter {
	m := &rssMeter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				v := rssMB()
				m.mu.Lock()
				if m.samples != nil {
					m.samples = append(m.samples, v)
				}
				m.mu.Unlock()
			}
		}
	}()
	return m
}

// begin starts a job. With reset set it first returns freed memory to
// the system, so the peak is the job's own rather than what earlier
// jobs left mapped.
func (m *rssMeter) begin(reset bool) {
	if reset {
		debug.FreeOSMemory()
	}
	v := rssMB()
	m.mu.Lock()
	m.samples = []float64{v}
	m.mu.Unlock()
}

// end closes a job and records its mean and peak.
func (m *rssMeter) end() {
	v := rssMB()
	m.mu.Lock()
	xs := append(m.samples, v)
	m.means = append(m.means, sum(xs)/float64(len(xs)))
	m.peaks = append(m.peaks, slices.Max(xs))
	m.samples = nil
	m.mu.Unlock()
}

// close stops sampling, once, and returns the medians over the jobs of
// their mean and peak resident sets.
func (m *rssMeter) close() (mean, peak float64) {
	m.once.Do(func() {
		close(m.stop)
		<-m.done
	})
	return median(m.means), median(m.peaks)
}

// rssMB is the process's current resident set.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// median returns the middle of xs (mean of the two middles when even).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// scratch returns a fresh directory under the run's work directory.
func scratch(o options, name string) (string, error) {
	dir := filepath.Join(o.workDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
