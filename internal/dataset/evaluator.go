// Package dataset generates and stores the paper's training data: for a
// sample of programs, microarchitectures and optimisation settings, the
// speedup of every setting over -O3 plus the -O3 performance-counter
// feature vectors (Section 3.2).
//
// The expensive pipeline stage is compile+trace, which is independent of
// the microarchitecture: the Evaluator compiles once per (program,
// setting) and replays the trace across architectures, making the paper's
// 7-million-simulation protocol tractable.
package dataset

import (
	"sync"
	"sync/atomic"

	"portcc/internal/codegen"
	"portcc/internal/core"
	"portcc/internal/cpu"
	"portcc/internal/ir"
	"portcc/internal/opt"
	"portcc/internal/prog"
	"portcc/internal/trace"
	"portcc/internal/uarch"
)

// EvalConfig fixes the workload-scaling parameters of an Evaluator.
type EvalConfig struct {
	// TargetInsns is the approximate dynamic trace length per simulation;
	// the run count per program is derived from it (>=1 complete runs).
	TargetInsns int
	// MaxInsns is the hard safety cap per trace.
	MaxInsns int
	// Seed drives trace generation (branch outcomes, addresses).
	Seed int64
	// CacheBudget, when positive, bounds the trace cache by approximate
	// resident bytes instead of the default fixed entry count. The most
	// recently inserted trace is always retained, so a tiny budget
	// degrades to compile-per-request rather than thrashing mid-request.
	CacheBudget int64
}

// DefaultEvalConfig is used when fields are zero.
var DefaultEvalConfig = EvalConfig{TargetInsns: 30_000, MaxInsns: 400_000, Seed: 1}

func (c EvalConfig) withDefaults() EvalConfig {
	d := DefaultEvalConfig
	if c.TargetInsns > 0 {
		d.TargetInsns = c.TargetInsns
	}
	if c.MaxInsns > 0 {
		d.MaxInsns = c.MaxInsns
	}
	if c.Seed != 0 {
		d.Seed = c.Seed
	}
	d.CacheBudget = c.CacheBudget
	return d
}

// SharedBase caches the microarchitecture- and setting-independent
// per-program artefacts - IR modules and the -O3 probe that fixes the
// complete-run count - across a pool of evaluators, so a fan-out that
// spreads one program's cells over many workers still builds each module
// and compiles each probe exactly once (single-flight). It also carries
// the pool's data-cache replay memo, so a memory stream one worker
// replayed answers every worker's replays of it. Every evaluator
// sharing a base must use the same EvalConfig, or run counts would
// disagree between workers.
type SharedBase struct {
	mu      sync.Mutex
	modules map[string]*moduleEntry
	probes  map[string]*probeEntry
	// compiles counts probe compiles actually performed (reporting).
	compiles atomic.Int64
	memo     *cpu.DataMemo
}

// ProbeCompiles returns how many -O3 probe compiles the base performed -
// with single-flight dedup this is at most one per program, however many
// evaluators share the base.
func (b *SharedBase) ProbeCompiles() int64 { return b.compiles.Load() }

type moduleEntry struct {
	once sync.Once
	m    *ir.Module
	err  error
}

type probeEntry struct {
	once   sync.Once
	runs   int
	perRun int // dynamic instructions of one complete -O3 run
	prog   *codegen.Program
	err    error
}

// NewSharedBase builds an empty base for a pool of evaluators.
func NewSharedBase() *SharedBase {
	return &SharedBase{modules: map[string]*moduleEntry{}, probes: map[string]*probeEntry{}, memo: cpu.NewDataMemo()}
}

func (b *SharedBase) module(name string) (*ir.Module, error) {
	b.mu.Lock()
	en, ok := b.modules[name]
	if !ok {
		en = &moduleEntry{}
		b.modules[name] = en
	}
	b.mu.Unlock()
	en.once.Do(func() { en.m, en.err = prog.Build(name) })
	return en.m, en.err
}

// runsFor compiles the program's -O3 probe once and derives the per-
// program complete-run count from it. The compiled -O3 binary is kept so
// every worker can regenerate the -O3 trace without recompiling.
func (b *SharedBase) runsFor(name string, m *ir.Module, cfg EvalConfig) (int, *codegen.Program, error) {
	b.mu.Lock()
	en, ok := b.probes[name]
	if !ok {
		en = &probeEntry{}
		b.probes[name] = en
	}
	b.mu.Unlock()
	en.once.Do(func() {
		b.compiles.Add(1)
		o3 := opt.O3()
		p, err := core.Compile(m, &o3)
		if err != nil {
			en.err = err
			return
		}
		probe := trace.Generate(p, trace.Config{Runs: 1, MaxInsns: cfg.MaxInsns, Seed: cfg.Seed})
		en.runs, en.perRun, en.prog = deriveRuns(probe, cfg), probe.Insns(), p
	})
	return en.runs, en.prog, en.err
}

// deriveRuns turns a 1-run -O3 probe into the per-program complete-run
// count: enough runs to approach TargetInsns, clamped to [1, 8]. Pooled
// and standalone evaluators must share this derivation, or run counts
// would disagree between workers.
func deriveRuns(probe *trace.Trace, cfg EvalConfig) int {
	perRun := probe.Insns()
	if perRun < 1 {
		perRun = 1
	}
	r := cfg.TargetInsns / perRun
	if r < 1 {
		r = 1
	}
	if r > 8 {
		r = 8
	}
	return r
}

// Evaluator compiles programs under optimisation settings and simulates
// them on microarchitectures, caching compiled traces (which are
// microarchitecture-independent). Safe for concurrent use.
type Evaluator struct {
	cfg  EvalConfig
	base *SharedBase // optional pool-shared module/probe cache
	// sweepWorkers bounds the per-geometry sweep parallelism inside each
	// batched replay (0 = GOMAXPROCS, cpu.SimulateBatchWith's contract).
	// Worker pools that already fan out over programs set an explicit
	// share via SetSweepWorkers so the two levels together match the
	// machine (see internal/tune).
	sweepWorkers int
	// rstore, when set, is the persistent content-addressed result store
	// replays are answered from and committed to (SetStore). Typically
	// shared by every evaluator of a pool.
	rstore *ResultStore
	// memo answers SimulateBatch's data-cache stacks for memory streams
	// already replayed: the pool's (through the shared base) or a private
	// one.
	memo *cpu.DataMemo

	mu      sync.Mutex
	modules map[string]*ir.Module
	runs    map[string]int // complete runs per trace, fixed per program
	perRuns map[string]int // -O3 probe length per program (sizing hint)
	// o3Progs keeps a standalone evaluator's -O3 probe binaries (pooled
	// ones keep theirs in the shared base) and o3FPs the fingerprints
	// the store path addresses their replays by, so a fresh -O3 profile
	// regenerates a trace instead of recompiling.
	o3Progs map[string]*codegen.Program
	o3FPs   map[string]codegen.Fingerprint
	traces  map[string]*cachedTrace
	order   []string // LRU order of trace cache keys (front = coldest)
	bytes   int64    // approximate resident bytes of cached traces
	// Compiles and Simulations count work done (for reporting).
	Compiles    int
	Simulations int
	// Batched-path counters (see Stats).
	passRuns, passRunsSaved, traceReuses int64
	// Trace-generation counters (see Stats).
	traceGens, traceEvents int64
	replayMemoHits         int64
}

type cachedTrace struct {
	tr   *trace.Trace
	prog *codegen.Program
}

// traceCacheSize bounds the trace cache; generation loops are ordered so a
// tiny cache suffices, keeping memory flat at paper scale.
const traceCacheSize = 4

// NewEvaluator builds a standalone evaluator.
func NewEvaluator(cfg EvalConfig) *Evaluator {
	return NewEvaluatorWith(cfg, nil)
}

// NewEvaluatorWith builds an evaluator that resolves modules and -O3
// probes through base (when non-nil), for worker pools. Trace caches
// stay private per evaluator.
func NewEvaluatorWith(cfg EvalConfig, base *SharedBase) *Evaluator {
	memo := cpu.NewDataMemo()
	if base != nil {
		memo = base.memo
	}
	return &Evaluator{
		cfg:     cfg.withDefaults(),
		base:    base,
		memo:    memo,
		modules: map[string]*ir.Module{},
		runs:    map[string]int{},
		perRuns: map[string]int{},
		o3Progs: map[string]*codegen.Program{},
		o3FPs:   map[string]codegen.Fingerprint{},
		traces:  map[string]*cachedTrace{},
	}
}

// Stats is the evaluator's work ledger, counting work actually
// performed. Compiles counts per-setting compilations (a batched window
// that is evicted and later rebuilt recompiles, and recounts); PassRuns
// counts pipeline pass applications executed and PassRunsSaved the
// applications the batched engine's prefix trie avoided, so for every
// performed batch PassRuns+PassRunsSaved is what a naive pipeline would
// have run for it. TraceReuses counts settings whose trace generation
// (and replay) was skipped because an earlier setting of the same sweep
// produced a byte-identical binary - each such setting once, however
// many cells it spans. TraceGens counts trace generations this evaluator
// performed (probes included, pool-shared probes excluded) and
// TraceEvents the dynamic instructions they emitted - the denominator
// that makes generator-throughput changes observable from a benchmark
// run without a profiler. ReplayMemoHits counts the data-cache stack
// sweeps of this evaluator's batched replays that the data-stream memo
// answered (see cpu.DataMemo); the naive per-cell path never consults
// the memo.
type Stats struct {
	Compiles    int
	Simulations int

	PassRuns      int64
	PassRunsSaved int64
	TraceReuses   int64

	TraceGens   int64
	TraceEvents int64

	ReplayMemoHits int64

	// StoreHits, StoreMisses and StoreCorrupt mirror the attached
	// persistent result store's ledger (zero without one): replays
	// answered from disk, replays that had to run, and entries
	// quarantined as corrupt. The counters are store-global, so
	// evaluators sharing a store report the shared totals. For a tiered
	// store, StoreHits counts replays answered by any tier.
	StoreHits, StoreMisses, StoreCorrupt int64

	// The StoreRemote* counters describe the shared-service tier of a
	// tiered result store (zero for a purely local one): replays
	// answered by the fleet's store service, lookups it answered with a
	// miss, and lookups degraded by transport trouble (dead service,
	// torn frames, slow replies - absorbed as misses). StorePutErrors
	// counts local commits the disk refused.
	StoreRemoteHits, StoreRemoteMisses, StoreRemoteErrors int64
	StorePutErrors                                        int64
}

// Stats returns the work counters under the evaluator's lock, safe
// against concurrent use.
func (e *Evaluator) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{
		Compiles:      e.Compiles,
		Simulations:   e.Simulations,
		PassRuns:      e.passRuns,
		PassRunsSaved: e.passRunsSaved,
		TraceReuses:   e.traceReuses,
		TraceGens:     e.traceGens,
		TraceEvents:   e.traceEvents,

		ReplayMemoHits: e.replayMemoHits,
	}
	if e.rstore != nil {
		ss := e.rstore.Stats()
		st.StoreHits, st.StoreMisses, st.StoreCorrupt = ss.Hits, ss.Misses, ss.Corrupt
		st.StoreRemoteHits, st.StoreRemoteMisses, st.StoreRemoteErrors = ss.RemoteHits, ss.RemoteMisses, ss.RemoteErrors
		st.StorePutErrors = ss.PutErrors
	}
	return st
}

// SetStore attaches a persistent result store: replays whose inputs
// match a stored entry are answered from disk, fresh replays are
// committed back. Results are bit-identical with or without a store
// (the key pins every replay input); a broken store degrades to
// cold-cache speed, never to wrong data.
func (e *Evaluator) SetStore(rs *ResultStore) {
	e.mu.Lock()
	e.rstore = rs
	e.mu.Unlock()
}

// resultStore returns the attached store, nil when none.
func (e *Evaluator) resultStore() *ResultStore {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rstore
}

// Runs returns the program's complete-run count, compiling the -O3
// probe on first use (deduplicated across a pool by the shared base).
// The batched sweep runner uses it to derive store keys without
// touching traces.
func (e *Evaluator) Runs(name string) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, err := e.module(name)
	if err != nil {
		return 0, err
	}
	runs, _, _, err := e.runsFor(name, m)
	return runs, err
}

// countTraceGen records one performed trace generation. Called with e.mu
// held.
func (e *Evaluator) countTraceGen(tr *trace.Trace) {
	e.traceGens++
	e.traceEvents += int64(len(tr.Events))
}

// module returns the pristine IR of a program, building it on first use
// (through the shared base when pooled).
func (e *Evaluator) module(name string) (*ir.Module, error) {
	if m, ok := e.modules[name]; ok {
		return m, nil
	}
	var m *ir.Module
	var err error
	if e.base != nil {
		m, err = e.base.module(name)
	} else {
		m, err = prog.Build(name)
	}
	if err != nil {
		return nil, err
	}
	e.modules[name] = m
	return m, nil
}

// runsFor determines the per-program complete-run count from a probe of
// the -O3 binary, so every setting of the program does identical work.
// The compiled -O3 binary is kept and returned on every call, so any
// -O3 trace request regenerates from it instead of recompiling. On
// first computation the probe trace is returned too, for the caller to
// seed the trace cache with - the almost-certain next request,
// Trace(name, O3), then costs nothing. Called with e.mu held.
func (e *Evaluator) runsFor(name string, m *ir.Module) (int, *codegen.Program, *trace.Trace, error) {
	if e.base != nil {
		// The base compiled the probe once for the whole pool and keeps
		// the binary (no probe trace - it is regenerated when needed).
		return e.baseRunsFor(name, m)
	}
	if r, ok := e.runs[name]; ok {
		return r, e.o3Progs[name], nil, nil
	}
	o3 := opt.O3()
	p, err := core.Compile(m, &o3)
	if err != nil {
		return 0, nil, nil, err
	}
	e.Compiles++
	e.passRuns += planSteps(&o3, m)
	probe := trace.Generate(p, trace.Config{Runs: 1, MaxInsns: e.cfg.MaxInsns, Seed: e.cfg.Seed})
	e.countTraceGen(probe)
	r := deriveRuns(probe, e.cfg)
	e.runs[name] = r
	e.perRuns[name] = probe.Insns()
	e.o3Progs[name] = p
	return r, p, probe, nil
}

// traceCap is the event capacity that holds a runs-run trace of a
// program whose -O3 run is perRun instructions long, with slack for
// settings that run a little longer, so generation into it runs without
// append doublings.
func traceCap(runs, perRun, maxInsns int) int {
	if runs < 1 {
		runs = 1
	}
	c := runs*perRun + perRun/2 + 256
	if max := maxInsns + 64; c > max {
		c = max
	}
	return c
}

// generateSized generates p's trace into a fresh buffer of traceCap
// events. The trace is the caller's to cache (it is not pooled).
func (e *Evaluator) generateSized(p *codegen.Program, runs, perRun int) *trace.Trace {
	tr := &trace.Trace{Events: make([]trace.Event, 0, traceCap(runs, perRun, e.cfg.MaxInsns))}
	return trace.GenerateInto(tr, p, trace.Config{Runs: runs, MaxInsns: e.cfg.MaxInsns, Seed: e.cfg.Seed})
}

// traceBytes approximates the resident size of a cached trace: the event
// stream dominates (16 bytes per padded Event) plus a small fixed cost for
// counters and the binary image.
func traceBytes(tr *trace.Trace) int64 {
	return int64(len(tr.Events))*16 + 4096
}

// baseRunsFor resolves the run count and -O3 binary through the shared
// base on every call (a brief mutex acquisition, noise next to the
// compile/replay work per cell): the binary must stay available so an
// -O3 trace request at any point regenerates instead of recompiling.
func (e *Evaluator) baseRunsFor(name string, m *ir.Module) (int, *codegen.Program, *trace.Trace, error) {
	r, p, err := e.base.runsFor(name, m, e.cfg)
	if err != nil {
		return 0, nil, nil, err
	}
	e.runs[name] = r
	e.base.mu.Lock()
	e.perRuns[name] = e.base.probes[name].perRun
	e.base.mu.Unlock()
	return r, p, nil, nil
}

// insertTrace caches a compiled trace under key, evicting in LRU order
// (touchTrace refreshes entries on hit). With a CacheBudget the bound is
// approximate bytes (the newest entry is always kept); otherwise it is
// the fixed traceCacheSize entry count. Called with e.mu held.
func (e *Evaluator) insertTrace(key string, tr *trace.Trace, p *codegen.Program) {
	if _, ok := e.traces[key]; ok {
		return
	}
	e.traces[key] = &cachedTrace{tr: tr, prog: p}
	e.order = append(e.order, key)
	e.bytes += traceBytes(tr)
	evict := func() bool {
		if e.cfg.CacheBudget > 0 {
			return e.bytes > e.cfg.CacheBudget && len(e.order) > 1
		}
		return len(e.order) > traceCacheSize
	}
	for evict() {
		old := e.order[0]
		e.order = e.order[1:]
		e.bytes -= traceBytes(e.traces[old].tr)
		delete(e.traces, old)
	}
}

// touchTrace moves a hit key to the warm end of the LRU order, so a hot
// entry (typically the -O3 baseline every speedup divides by) survives an
// insert-heavy sweep that would evict it under insertion order. Called
// with e.mu held.
func (e *Evaluator) touchTrace(key string) {
	for i, k := range e.order {
		if k == key {
			copy(e.order[i:], e.order[i+1:])
			e.order[len(e.order)-1] = key
			return
		}
	}
}

// Trace returns the dynamic trace of the program compiled under c, cached.
func (e *Evaluator) Trace(name string, c *opt.Config) (*trace.Trace, *codegen.Program, error) {
	key := name + "/" + c.Key()
	e.mu.Lock()
	if ct, ok := e.traces[key]; ok {
		e.touchTrace(key)
		e.mu.Unlock()
		return ct.tr, ct.prog, nil
	}
	m, err := e.module(name)
	if err != nil {
		e.mu.Unlock()
		return nil, nil, err
	}
	runs, o3Prog, o3Probe, err := e.runsFor(name, m)
	if err != nil {
		e.mu.Unlock()
		return nil, nil, err
	}
	perRun := e.perRuns[name]
	e.mu.Unlock()

	// An -O3 request regenerates the full-length trace from the kept
	// -O3 binary, outside the lock, instead of recompiling it (the
	// probe already is that trace when the run count is 1). The first
	// request of a standalone evaluator seeds the cache this way whatever
	// its setting, since the probe was just traced; pooled evaluators
	// get no probe trace from the shared base, so for them only an
	// actual -O3 request seeds - most workers never serve the program's
	// -O3 cell, and an eager full-length trace would be wasted work.
	if o3Prog != nil {
		o3 := opt.O3()
		o3Key := name + "/" + o3.Key()
		if o3Probe != nil || key == o3Key {
			o3Trace := o3Probe
			if o3Trace == nil || runs != 1 {
				o3Trace = e.generateSized(o3Prog, runs, perRun)
			}
			e.mu.Lock()
			if o3Trace != o3Probe {
				e.countTraceGen(o3Trace)
			}
			e.insertTrace(o3Key, o3Trace, o3Prog)
			ct, ok := e.traces[key]
			e.mu.Unlock()
			if ok {
				return ct.tr, ct.prog, nil
			}
		}
	}

	// Compile and trace outside the lock (the expensive part).
	p, err := core.Compile(m, c)
	if err != nil {
		return nil, nil, err
	}
	tr := trace.Generate(p, trace.Config{Runs: runs, MaxInsns: e.cfg.MaxInsns, Seed: e.cfg.Seed})

	e.mu.Lock()
	e.Compiles++
	e.passRuns += planSteps(c, m)
	e.countTraceGen(tr)
	e.insertTrace(key, tr, p)
	e.mu.Unlock()
	return tr, p, nil
}

// planSteps is the pass-application count of a linear compile of c over
// m, the unit both Stats paths count in.
func planSteps(c *opt.Config, m *ir.Module) int64 {
	nonLib, lib := 0, 0
	for _, f := range m.Funcs {
		if f.Library {
			lib++
		} else {
			nonLib++
		}
	}
	plan := opt.PlanFor(c)
	return int64(plan.Steps(nonLib, lib))
}

// BatchBinary is one setting's slot in a CompileBatch result. Settings
// whose pipelines produced byte-identical binaries share a fingerprint:
// the first such slot has First pointing at itself; twins carry the
// owning slot's index, so consumers generate one trace (and one replay)
// per distinct binary. Err is the per-setting compile failure, nil
// otherwise.
type BatchBinary struct {
	Prog  *codegen.Program
	FP    codegen.Fingerprint
	First int
	Err   error
}

// TraceBatch compiles every setting of a sweep over one program through
// the prefix-memoised batch engine (core.CompileBatch) and fingerprints
// the binaries so byte-identical twins are visible to the caller. A
// non-nil top-level error (module build or -O3 probe failure) fails
// every setting alike. Traces are generated separately (GenerateTrace,
// typically lazily per distinct binary) so a caller serving only part
// of the sweep never holds more than its in-flight traces.
func (e *Evaluator) TraceBatch(name string, cfgs []*opt.Config) ([]BatchBinary, error) {
	e.mu.Lock()
	m, err := e.module(name)
	if err != nil {
		e.mu.Unlock()
		return nil, err
	}
	if _, _, _, err := e.runsFor(name, m); err != nil {
		e.mu.Unlock()
		return nil, err
	}
	e.mu.Unlock()

	progs, errs, stats := core.CompileBatch(m, cfgs)
	out := make([]BatchBinary, len(cfgs))
	index := make(map[codegen.Fingerprint]int, len(cfgs))
	scratch := make([]byte, 0, 1<<16)
	compiled := 0
	for i := range cfgs {
		if errs[i] != nil {
			out[i] = BatchBinary{First: i, Err: errs[i]}
			continue
		}
		compiled++
		var fp codegen.Fingerprint
		fp, scratch = codegen.FingerprintInto(progs[i], scratch)
		if j, ok := index[fp]; ok {
			out[i] = BatchBinary{Prog: progs[i], FP: fp, First: j}
			continue
		}
		index[fp] = i
		out[i] = BatchBinary{Prog: progs[i], FP: fp, First: i}
	}

	e.mu.Lock()
	// Like the naive Trace path, Compiles counts successful per-setting
	// compilations only, so the two paths stay comparable.
	e.Compiles += compiled
	e.passRuns += stats.PassRuns
	e.passRunsSaved += stats.PassRunsSaved
	e.mu.Unlock()
	return out, nil
}

// GenerateTrace generates the trace of an already-compiled binary of the
// named program into a pooled buffer sized from the -O3 probe, so
// steady-state generation runs without append doublings in one
// allocation. The run count is established through the evaluator's
// probe path (deduplicated across a pool by the shared base), so every
// worker slot derives the identical trace. The caller owns the trace
// and must return it with trace.Put when done (it is never inserted
// into the evaluator's cache).
func (e *Evaluator) GenerateTrace(name string, p *codegen.Program) (*trace.Trace, error) {
	e.mu.Lock()
	m, err := e.module(name)
	if err != nil {
		e.mu.Unlock()
		return nil, err
	}
	runs, _, _, err := e.runsFor(name, m)
	if err != nil {
		e.mu.Unlock()
		return nil, err
	}
	perRun := e.perRuns[name]
	cfg := e.cfg
	e.mu.Unlock()
	tr := trace.Get(traceCap(runs, perRun, cfg.MaxInsns))
	trace.GenerateInto(tr, p, trace.Config{Runs: runs, MaxInsns: cfg.MaxInsns, Seed: cfg.Seed})
	e.mu.Lock()
	e.countTraceGen(tr)
	e.mu.Unlock()
	return tr, nil
}

// addTraceReuses records settings whose trace generation (and replay)
// was skipped because an earlier setting produced a byte-identical
// binary.
func (e *Evaluator) addTraceReuses(n int64) {
	e.mu.Lock()
	e.traceReuses += n
	e.mu.Unlock()
}

// SetSweepWorkers sets the worker budget each batched replay fans its
// per-geometry sweeps over: 0 (the default) uses GOMAXPROCS, so a
// standalone evaluator exploits the whole machine per SimulateBatch
// call; n >= 1 pins an explicit share, which worker pools use to divide
// the machine between program fan-out and sweep parallelism. Results
// are bit-identical at every setting.
func (e *Evaluator) SetSweepWorkers(n int) {
	e.mu.Lock()
	e.sweepWorkers = n
	e.mu.Unlock()
}

// SimulateBatch replays an already-generated trace on every architecture
// through the batched single-pass engine, returning one result per
// architecture in input order (bit-identical to SimulateTrace per
// architecture). The per-geometry sweeps inside the pass fan over the
// evaluator's sweep-worker budget (SetSweepWorkers), and data-cache
// stacks whose memory stream the evaluator's memo has already replayed
// on the same geometry are answered from it.
func (e *Evaluator) SimulateBatch(tr *trace.Trace, archs []uarch.Config) []cpu.Result {
	return e.simulateBatch(tr, archs, e.memo)
}

// simulateBatch is SimulateBatch with an explicit memo; the naive
// per-cell path passes nil and replays every stack.
func (e *Evaluator) simulateBatch(tr *trace.Trace, archs []uarch.Config, memo *cpu.DataMemo) []cpu.Result {
	e.mu.Lock()
	workers := e.sweepWorkers
	e.mu.Unlock()
	rs, hits := cpu.SimulateBatchMemo(tr, archs, workers, memo)
	e.mu.Lock()
	e.Simulations += len(archs)
	e.replayMemoHits += int64(hits)
	e.mu.Unlock()
	return rs
}

// SimulateTrace replays an already-generated trace on an architecture.
func (e *Evaluator) SimulateTrace(tr *trace.Trace, a uarch.Config) cpu.Result {
	return e.simulate(tr, a)
}

// simulate replays a trace on an architecture, counting the simulation.
func (e *Evaluator) simulate(tr *trace.Trace, a uarch.Config) cpu.Result {
	r := cpu.Simulate(tr, a)
	e.mu.Lock()
	e.Simulations++
	e.mu.Unlock()
	return r
}

// Run simulates program name compiled under c on architecture a. With
// a result store attached and the trace not already resident, the
// replay is answered from disk when a matching entry exists - compile
// only, no trace generation, no simulation - which is what makes a
// store-backed prediction server's profile cache persistent across
// restarts.
func (e *Evaluator) Run(name string, c *opt.Config, a uarch.Config) (cpu.Result, error) {
	key := name + "/" + c.Key()
	e.mu.Lock()
	st := e.rstore
	_, resident := e.traces[key]
	e.mu.Unlock()
	if st == nil || resident {
		// No store, or the trace is already in memory: replaying the
		// resident trace is cheaper than a disk round-trip would save.
		tr, _, err := e.Trace(name, c)
		if err != nil {
			return cpu.Result{}, err
		}
		return e.simulate(tr, a), nil
	}

	// Store path: the binary fingerprint addresses the stored replay.
	// An -O3 request reuses the kept probe binary and its fingerprint;
	// any other setting compiles (cheap, architecture-independent).
	e.mu.Lock()
	m, err := e.module(name)
	if err != nil {
		e.mu.Unlock()
		return cpu.Result{}, err
	}
	runs, p, _, err := e.runsFor(name, m)
	perRun := e.perRuns[name]
	fp, haveFP := e.o3FPs[name]
	cfg := e.cfg
	e.mu.Unlock()
	if err != nil {
		return cpu.Result{}, err
	}
	if o3 := opt.O3(); key != name+"/"+o3.Key() {
		if p, err = core.Compile(m, c); err != nil {
			return cpu.Result{}, err
		}
		e.mu.Lock()
		e.Compiles++
		e.passRuns += planSteps(c, m)
		e.mu.Unlock()
		fp, _ = codegen.FingerprintInto(p, nil)
	} else if !haveFP {
		fp, _ = codegen.FingerprintInto(p, nil)
		e.mu.Lock()
		e.o3FPs[name] = fp
		e.mu.Unlock()
	}
	archs := []uarch.Config{a}
	if rs, ok := st.Get(fp, runs, cfg, archs); ok {
		return rs[0], nil
	}
	tr := e.generateSized(p, runs, perRun)
	e.mu.Lock()
	e.countTraceGen(tr)
	e.insertTrace(key, tr, p)
	e.mu.Unlock()
	r := e.simulate(tr, a)
	st.Put(fp, runs, cfg, archs, []cpu.Result{r})
	return r, nil
}

// CyclesPerRun returns cycles normalised by complete program runs, the
// comparable work-time metric.
func (e *Evaluator) CyclesPerRun(name string, c *opt.Config, a uarch.Config) (float64, error) {
	tr, _, err := e.Trace(name, c)
	if err != nil {
		return 0, err
	}
	r := e.simulate(tr, a)
	runs := tr.Runs
	if runs < 1 {
		runs = 1
	}
	return float64(r.Cycles) / float64(runs), nil
}
