package dataset

import (
	"math/rand"
	"sync"
	"testing"

	"portcc/internal/core"
	"portcc/internal/cpu"
	"portcc/internal/opt"
	"portcc/internal/prog"
	"portcc/internal/trace"
	"portcc/internal/uarch"
)

// TestTraceCacheLRUKeepsHotEntry pins the eviction policy: the order is
// LRU, refreshed on every Trace hit, so a hot entry (the -O3 baseline
// here) survives an insert-heavy sweep under a cache budget tight enough
// that insertion-order (FIFO) eviction would throw it out every round
// and regenerate it from the kept -O3 binary.
func TestTraceCacheLRUKeepsHotEntry(t *testing.T) {
	o3 := opt.O3()
	// Calibrate the budget to the program's real trace size: room for
	// about three entries, so every sweep insert forces an eviction
	// while a refreshed hot entry still fits.
	probe := NewEvaluator(EvalConfig{TargetInsns: 4_000, Seed: 1})
	tr, _, err := probe.Trace("crc", &o3)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(EvalConfig{TargetInsns: 4_000, Seed: 1, CacheBudget: 3 * traceBytes(tr)})
	if _, _, err := ev.Trace("crc", &o3); err != nil {
		t.Fatal(err)
	}
	base := ev.Stats().Compiles

	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 8; i++ {
		cfg := opt.Random(rng)
		if _, _, err := ev.Trace("crc", &cfg); err != nil {
			t.Fatal(err)
		}
		// The hot entry: under LRU this hit refreshes it past the insert
		// above; under FIFO it would age out and be regenerated.
		before := ev.Stats().TraceGens
		if _, _, err := ev.Trace("crc", &o3); err != nil {
			t.Fatal(err)
		}
		if got := ev.Stats().TraceGens; got != before {
			t.Fatalf("round %d: -O3 trace was evicted and regenerated (trace gens %d -> %d)", i, before, got)
		}
	}
	if got, want := ev.Stats().Compiles, base+8; got != want {
		t.Fatalf("compiles = %d, want %d (one per fresh setting only)", got, want)
	}
}

// TestFreshArchReusesO3Binary pins the serving profile path: once a
// program's -O3 probe has been compiled, an -O3 profile on a new
// architecture costs one trace generation and one simulation and no
// compile, even with the program's trace evicted from the cache - both
// through Trace and through Run's result-store path, which addresses
// replays by the kept binary's fingerprint. The results match a
// compile-trace-simulate of the same request done from scratch.
func TestFreshArchReusesO3Binary(t *testing.T) {
	// One program more than the trace cache holds: cycling through them
	// evicts every trace before its program comes round again.
	progs := []string{"crc", "bitcnts", "qsort", "sha", "search"}
	cfg := EvalConfig{TargetInsns: 4_000, Seed: 1}
	o3 := opt.O3()
	const k = 10
	archs := uarch.Space{}.SampleN(rand.New(rand.NewSource(5)), k)
	for _, withStore := range []bool{false, true} {
		ev := NewEvaluator(cfg)
		if withStore {
			rs, err := OpenResultStore(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			ev.SetStore(rs)
		}
		for _, p := range progs {
			if _, err := ev.Run(p, &o3, uarch.XScale()); err != nil {
				t.Fatal(err)
			}
		}
		before := ev.Stats()
		got := make([]cpu.Result, k)
		for i := range got {
			r, err := ev.Run(progs[i%len(progs)], &o3, archs[i])
			if err != nil {
				t.Fatal(err)
			}
			got[i] = r
		}
		after := ev.Stats()
		if after.Compiles != before.Compiles {
			t.Errorf("store=%v: %d fresh-arch profiles compiled %d times, want 0", withStore, k, after.Compiles-before.Compiles)
		}
		if d := after.TraceGens - before.TraceGens; d != k {
			t.Errorf("store=%v: %d fresh-arch profiles generated %d traces, want %d", withStore, k, d, k)
		}
		if d := after.Simulations - before.Simulations; d != k {
			t.Errorf("store=%v: %d fresh-arch profiles simulated %d times, want %d", withStore, k, d, k)
		}
		for i, r := range got {
			name := progs[i%len(progs)]
			m, err := prog.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.Compile(m, &o3)
			if err != nil {
				t.Fatal(err)
			}
			runs, err := ev.Runs(name)
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.Generate(p, trace.Config{Runs: runs, MaxInsns: ev.cfg.MaxInsns, Seed: cfg.Seed})
			if want := cpu.Simulate(tr, archs[i]); r != want {
				t.Fatalf("store=%v: %s on arch %d: profile differs from a fresh compile and trace", withStore, name, i)
			}
		}
	}
}

// TestConcurrentO3ProfilesShareKeptBinary runs -O3 profiles of a few
// programs from several goroutines at once, with and without a result
// store, so the race detector sees the kept binaries and fingerprints
// shared; every answer must match a sequential evaluator's.
func TestConcurrentO3ProfilesShareKeptBinary(t *testing.T) {
	progs := []string{"crc", "bitcnts", "qsort", "sha", "search"}
	cfg := EvalConfig{TargetInsns: 2_000, Seed: 1}
	o3 := opt.O3()
	archs := uarch.Space{}.SampleN(rand.New(rand.NewSource(8)), 4)
	ref := NewEvaluator(cfg)
	want := map[[2]int]cpu.Result{}
	for p := range progs {
		for a := range archs {
			r, err := ref.Run(progs[p], &o3, archs[a])
			if err != nil {
				t.Fatal(err)
			}
			want[[2]int{p, a}] = r
		}
	}
	for _, withStore := range []bool{false, true} {
		ev := NewEvaluator(cfg)
		if withStore {
			rs, err := OpenResultStore(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			ev.SetStore(rs)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < len(progs)*len(archs); i++ {
					p, a := (i+g)%len(progs), (i/len(progs)+g)%len(archs)
					r, err := ev.Run(progs[p], &o3, archs[a])
					if err != nil {
						t.Error(err)
						return
					}
					if r != want[[2]int{p, a}] {
						t.Errorf("store=%v: %s on arch %d differs from the sequential profile", withStore, progs[p], a)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
