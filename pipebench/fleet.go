package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"portcc/internal/dataset"
	"portcc/internal/sched"
	"portcc/internal/store"
)

// runFleetResume measures a fleet restarting a generation that was
// killed halfway: a store service on loopback whose directory holds
// every replay of the first half of the programs, and one shard per
// core, each with one worker and a remote-only result store. The grid
// is coordinated over the shards; half of its replays are store reads
// over the wire, the rest are computed and written back. Each
// iteration starts from a fresh copy of the half-finished store.
func runFleetResume(o options) (*report, error) {
	rep := newReport()
	cfg := genConfig(o)
	req, err := cfg.Request()
	if err != nil {
		return nil, err
	}

	// The half-finished store: cells dispatch program-major, so a run
	// killed halfway has committed the first half of the programs.
	seedDir, err := scratch(o, "store-seed")
	if err != nil {
		return nil, err
	}
	half := cfg
	half.Programs = cfg.Programs[:len(cfg.Programs)/2]
	rs, err := dataset.OpenResultStore(seedDir, 0)
	if err != nil {
		return nil, err
	}
	_, err = dataset.GenerateWith(context.Background(), half, dataset.ExploreOptions{Store: rs})
	if cerr := rs.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	var setups, resumes, tracedResumes []float64
	var fps []string
	var lay fleetLayers
	var last store.ServiceStats
	rss := startRSS()
	defer rss.close()
	iteration := func(i int, traced bool) error {
		rss.begin(true)
		it, err := resumeOnce(o, seedDir, fmt.Sprintf("store-%d", i), cfg, traced, &lay)
		rss.end()
		if err != nil {
			return err
		}
		setups = append(setups, it.setup)
		if traced {
			tracedResumes = append(tracedResumes, it.resume)
			lay.add(it.stats)
		} else {
			resumes = append(resumes, it.resume)
		}
		fps = append(fps, it.fp)
		last = it.stats
		rep.ops(int64(req.Cells())+it.stats.Gets+it.stats.Puts, it.stats.GetErrors+it.stats.PutErrors)
		rep.check(it.stats.Hits > 0 && it.stats.Puts > 0,
			"fleet_resume: iteration %d store service saw %d hits and %d puts, want both", i, it.stats.Hits, it.stats.Puts)
		return nil
	}
	// A traced run alternates untraced iterations, the overhead
	// reference, with traced ones, and runs at least one of each.
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < o.seconds || (o.trace && i < 2); i++ {
		if err := iteration(i, o.trace && i%2 == 1); err != nil {
			return nil, err
		}
	}
	mean, peak := rss.close()

	ref, err := dataset.GenerateWith(context.Background(), cfg, dataset.ExploreOptions{})
	if err != nil {
		return nil, err
	}
	want, err := ref.Fingerprint()
	if err != nil {
		return nil, err
	}
	for i, fp := range fps {
		rep.check(fp == want, "fleet_resume: iteration %d dataset %s differs from the local run's %s", i, fp, want)
	}

	rep.e2e["setup_s"] = median(setups)
	rep.e2e["rss_mb"] = mean
	rep.note("peak_rss_mb", "MB", peak)
	rep.e2e["job_s"] = median(resumes)
	rep.note("resume_s", "s", median(resumes))
	rep.note("iterations", "count", float64(len(fps)))
	rep.note("service_gets", "count", float64(last.Gets))
	rep.note("service_hits", "count", float64(last.Hits))
	rep.note("service_puts", "count", float64(last.Puts))
	if o.trace {
		lay.fill(rep.layer, len(tracedResumes), float64(req.Cells()), sum(tracedResumes))
		rep.layer["bench.trace_overhead"] = median(tracedResumes) / median(resumes)
	}
	return rep, nil
}

// resumeResult is one resumed generation.
type resumeResult struct {
	setup, resume float64
	fp            string
	stats         store.ServiceStats
}

// resumeOnce brings up the service and the shards on a fresh copy of
// the half-finished store, coordinates the grid over them and tears
// everything down. With traced set it times the service's backend
// calls and the shards' cells and counts the bytes on every listener.
func resumeOnce(o options, seedDir, name string, cfg dataset.GenConfig, traced bool, lay *fleetLayers) (resumeResult, error) {
	var res resumeResult
	dir, err := scratch(o, name)
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(seedDir, dir); err != nil {
		return res, err
	}
	// Write the copy back now: left dirty, it would be flushed by the
	// service's first fsyncs, inside the timed resume.
	syscall.Sync()
	t0 := time.Now()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return res, err
	}
	defer st.Close()
	var backend store.Backend = st
	if traced {
		backend = &timedBackend{Backend: st, lay: lay}
	}
	sv := store.NewService(backend, store.ServiceConfig{Format: dataset.FormatVersion})

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	serve := func(run func(net.Listener) error) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		if traced {
			ln = countingListener{Listener: ln, n: &lay.wireBytes}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := run(ln); err != nil {
				fmt.Fprintln(os.Stderr, "pipebench: listener:", err)
			}
		}()
		return ln.Addr().String(), nil
	}
	svAddr, err := serve(func(ln net.Listener) error { return sv.Serve(ctx, ln) })
	if err != nil {
		return res, err
	}
	shards := make([]string, runtime.GOMAXPROCS(0))
	for k := range shards {
		rs, err := dataset.OpenResultStoreRemote("", 0, svAddr)
		if err != nil {
			return res, err
		}
		defer rs.Close()
		scfg := dataset.ServeConfigStore(1, 1, 0, rs)
		if traced {
			scfg.NewRun = lay.timeCells(scfg.NewRun)
		}
		if shards[k], err = serve(func(ln net.Listener) error { return sched.Serve(ctx, ln, scfg) }); err != nil {
			return res, err
		}
	}
	res.setup = time.Since(t0).Seconds()

	t1 := time.Now()
	ds, err := dataset.GenerateWith(context.Background(), cfg, dataset.ExploreOptions{Shards: shards})
	if err != nil {
		return res, err
	}
	res.resume = time.Since(t1).Seconds()
	res.stats = sv.Stats()
	res.fp, err = ds.Fingerprint()
	return res, err
}

// fleetLayers collects the traced fleet iterations' layer samples.
type fleetLayers struct {
	mu         sync.Mutex
	gets, puts []float64 // µs per backend call
	cells      []float64 // ms per shard cell
	busy       float64   // s of shard cell time, summed
	wireBytes  atomic.Int64
	// stats sums the store service's own ledger over the traced
	// iterations.
	stats store.ServiceStats
}

func (l *fleetLayers) sample(dst *[]float64, v float64) {
	l.mu.Lock()
	*dst = append(*dst, v)
	l.mu.Unlock()
}

// add sums one traced iteration's store service ledger.
func (l *fleetLayers) add(st store.ServiceStats) {
	l.stats.Gets += st.Gets
	l.stats.Hits += st.Hits
	l.stats.GetErrors += st.GetErrors
	l.stats.Puts += st.Puts
	l.stats.PutErrors += st.PutErrors
}

// timeCells wraps a shard's runner factory so every cell is timed.
func (l *fleetLayers) timeCells(newRun func(any) (func(int, int) (any, error), error)) func(any) (func(int, int) (any, error), error) {
	return func(spec any) (func(int, int) (any, error), error) {
		run, err := newRun(spec)
		if err != nil {
			return nil, err
		}
		return func(slot, index int) (any, error) {
			t := time.Now()
			v, err := run(slot, index)
			d := time.Since(t)
			l.mu.Lock()
			l.cells = append(l.cells, float64(d.Nanoseconds())/1e6)
			l.busy += d.Seconds()
			l.mu.Unlock()
			return v, err
		}, nil
	}
}

// fill writes the fleet's per-layer metrics over n traced resumes of
// cells each, taking wall seconds in all. Counts are per resume, so
// they do not depend on how many resumes fit in the measuring time.
func (l *fleetLayers) fill(m map[string]float64, n int, cells, wall float64) {
	per := 1 / float64(n)
	m["store.get_us_p50"] = quantile(l.gets, 0.5)
	m["store.get_us_p99"] = quantile(l.gets, 0.99)
	m["store.put_us_p50"] = quantile(l.puts, 0.5)
	m["store.put_us_p99"] = quantile(l.puts, 0.99)
	m["store.gets"] = float64(l.stats.Gets) * per
	m["store.puts"] = float64(l.stats.Puts) * per
	m["store.hit_ratio"] = float64(l.stats.Hits) / float64(l.stats.Gets)
	m["store.errors"] = float64(l.stats.GetErrors+l.stats.PutErrors) * per
	m["sched.cell_ms_p50"] = quantile(l.cells, 0.5)
	m["sched.cell_ms_p99"] = quantile(l.cells, 0.99)
	m["sched.shard_busy_fraction"] = l.busy / (wall * float64(runtime.GOMAXPROCS(0)))
	m["wire.bytes_per_cell"] = float64(l.wireBytes.Load()) / (cells * float64(n))
}

// timedBackend times every Get and Put the store service makes; the
// service's own Stats count them.
type timedBackend struct {
	store.Backend
	lay *fleetLayers
}

func (b *timedBackend) Get(k store.Key) ([]byte, bool, error) {
	t := time.Now()
	payload, ok, err := b.Backend.Get(k)
	b.lay.sample(&b.lay.gets, float64(time.Since(t).Nanoseconds())/1e3)
	return payload, ok, err
}

func (b *timedBackend) Put(k store.Key, payload []byte) error {
	t := time.Now()
	err := b.Backend.Put(k, payload)
	b.lay.sample(&b.lay.puts, float64(time.Since(t).Nanoseconds())/1e3)
	return err
}

// countingListener counts the bytes read and written on every
// connection it accepts.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// copyDir copies the regular files of a directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return errors.New("copyDir: " + path + " is not a regular file")
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
