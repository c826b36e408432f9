// The batched cell runner: cells of one exploration grid share a sweep
// state that compiles a program's optimisation settings in windows
// through Evaluator.TraceBatch (prefix-memoised pipeline) and
// deduplicates trace generation and replay across settings whose
// pipelines produced byte-identical binaries. The scheduler contract is
// untouched: cells are still dispatched, executed and streamed one by
// one - the batch compile happens behind the first cell of each window,
// and every result is bit-identical to the naive per-cell path.
//
// Memory is bounded even when a runner serves only part of the grid (a
// worker daemon behind sched.Remote sees interleaved chunks and may
// never receive some cells): windows hold compiled binaries only and
// live in a small FIFO that rebuilds on demand, traces are generated
// lazily at the first replay that needs them from pooled buffers and
// returned to the pool as soon as their last architecture range has
// been simulated, and replay results are memoised per binary so twin
// settings never touch a trace at all.
package dataset

import (
	"sync"
	"sync/atomic"

	"portcc/internal/codegen"
	"portcc/internal/cpu"
	"portcc/internal/opt"
	"portcc/internal/pcerr"
	"portcc/internal/trace"
)

// sweepWindowSize picks how many settings one TraceBatch covers: the
// whole sweep when one worker slot runs it, shrinking with the slot count
// so parallel workers are not serialised behind one window build, bounded
// so a window's compiled binaries stay a few dozen at any scale.
func sweepWindowSize(opts, slots int) int {
	if slots < 1 {
		slots = 1
	}
	w := opts / slots
	if w < 8 {
		w = 8
	}
	if w > 64 {
		w = 64
	}
	if w > opts {
		w = opts
	}
	return w
}

// maxBuiltWindows bounds the compiled windows retained across the whole
// sweep state (FIFO): a runner that executes cells in dispatch order
// never revisits an evicted window, and one that does (a shard serving
// interleaved or requeued chunks) just rebuilds it - identical output,
// bounded memory.
const maxBuiltWindows = 8

// sweepState is shared by every worker slot of one Runner.
type sweepState struct {
	req    *ExploreRequest
	window int // settings per window
	// batches is the arch-batch count per (program, setting).
	batches int

	mu    sync.Mutex
	progs map[int]*progSweep
	// built is the FIFO of window keys currently retained.
	built []windowKey
}

type windowKey struct {
	prog, start int
}

// progSweep holds one program's in-flight windows, its cross-window
// replay memo and its live traces. It is dropped once every cell of the
// program has been consumed (local runs; a partial-grid runner keeps the
// small memos until the run ends).
type progSweep struct {
	prog      int
	cellsLeft int
	windows   map[int]*sweepWindow
	sims      map[simKey]*simCell
	traces    map[codegen.Fingerprint]*traceSlot
	// seenFPs and counted drive the TraceReuses accounting: fingerprints
	// already owned by an earlier setting of this program, and window
	// starts whose reuse count has been recorded (a rebuilt window must
	// not recount).
	seenFPs map[codegen.Fingerprint]bool
	counted map[int]bool
}

// sweepWindow is one contiguous run of settings, batch-compiled by the
// first cell that needs any of them - or, ahead of its cells, by a slot
// that would otherwise idle on another slot's window compile. It holds
// binaries and fingerprints only; traces are the traceSlots' business.
type sweepWindow struct {
	once sync.Once
	// claimed marks a window a slot has committed to build (guarded by
	// sweepState.mu); built is set when the build has finished.
	claimed bool
	built   atomic.Bool
	err     error         // whole-window failure (module build, -O3 probe)
	bt      []BatchBinary // per setting, local index = opt - start
}

// simKey identifies one (binary, architecture range) replay.
type simKey struct {
	fp     codegen.Fingerprint
	lo, hi int
}

// simCell memoises one replay: twin settings reuse the results without
// touching a trace.
type simCell struct {
	once    sync.Once
	runs    int
	results []cpu.Result
	err     error
}

// traceSlot owns one distinct binary's generated trace while replays
// still need it. remaining counts the architecture ranges not yet
// simulated and using the replays currently reading the trace; the
// buffer returns to the pool when remaining reaches zero, so at the
// default ArchBatch (one range) a trace lives exactly for the duration
// of its single replay. Idle traces (using == 0) beyond maxLiveTraces
// are evicted early and regenerated on demand - a runner that never
// receives a binary's remaining ranges (a shard serving part of the
// grid) cannot pin its trace forever.
type traceSlot struct {
	mu        sync.Mutex
	tr        *trace.Trace
	remaining int
	using     int
}

// maxLiveTraces bounds the generated traces a program retains between
// replays; only non-default ArchBatch settings keep traces across cells
// at all, so the bound is comfortably above any real in-flight set.
const maxLiveTraces = 16

func newSweepState(req *ExploreRequest, slots int) *sweepState {
	ab := req.ArchBatch
	if ab <= 0 || ab > len(req.Archs) {
		ab = len(req.Archs)
	}
	return &sweepState{
		req:     req,
		window:  sweepWindowSize(len(req.Opts), slots),
		batches: (len(req.Archs) + ab - 1) / ab,
		progs:   make(map[int]*progSweep),
	}
}

// prog returns (creating on first use) the per-program state.
func (s *sweepState) prog(p int) *progSweep {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps, ok := s.progs[p]
	if !ok {
		ps = &progSweep{
			prog:      p,
			cellsLeft: len(s.req.Opts) * s.batches,
			windows:   make(map[int]*sweepWindow),
			sims:      make(map[simKey]*simCell),
			traces:    make(map[codegen.Fingerprint]*traceSlot),
			seenFPs:   make(map[codegen.Fingerprint]bool),
			counted:   make(map[int]bool),
		}
		s.progs[p] = ps
	}
	return ps
}

// builtWindow returns the built window starting at start. A slot that
// finds the window being compiled by another slot does not idle on it:
// it first claims and builds the program's next unbuilt window, which a
// later cell of the program needs anyway, and only then waits. The
// look-ahead stays within the program, so a shard runner never compiles
// windows of programs it serves no cells of, and it never evicts a
// retained window, so each window is still built once.
func (s *sweepState) builtWindow(ev *Evaluator, ps *progSweep, name string, start int) *sweepWindow {
	s.mu.Lock()
	w := s.windowAt(ps, start)
	var ahead *sweepWindow
	aheadStart := 0
	if w.claimed && !w.built.Load() {
		aheadStart, ahead = s.claimAhead(ps, start)
	}
	w.claimed = true
	s.mu.Unlock()
	if ahead != nil {
		s.build(ev, ps, name, ahead, aheadStart)
	}
	s.build(ev, ps, name, w, start)
	return w
}

// claimAhead claims the first window after start that no slot has
// claimed and that was never built, creating its record; it returns nil
// when there is none or creating one would evict a retained window.
// Called with s.mu held.
func (s *sweepState) claimAhead(ps *progSweep, start int) (int, *sweepWindow) {
	for next := start + s.window; next < len(s.req.Opts); next += s.window {
		if w, ok := ps.windows[next]; ok {
			if !w.claimed {
				w.claimed = true
				return next, w
			}
			continue
		}
		if ps.counted[next] {
			continue // built before and evicted since: its own cells rebuild it
		}
		if len(s.built) >= maxBuiltWindows {
			return 0, nil
		}
		w := s.windowAt(ps, next)
		w.claimed = true
		return next, w
	}
	return 0, nil
}

// build batch-compiles the window's settings once; concurrent callers
// wait for the first.
func (s *sweepState) build(ev *Evaluator, ps *progSweep, name string, w *sweepWindow, start int) {
	w.once.Do(func() {
		n := min(s.window, len(s.req.Opts)-start)
		cfgs := make([]*opt.Config, n)
		for i := range cfgs {
			cfgs[i] = &s.req.Opts[start+i]
		}
		w.bt, w.err = ev.TraceBatch(name, cfgs)
		if w.err == nil {
			ev.addTraceReuses(s.countReuses(ps, start, w.bt))
		}
		w.built.Store(true)
	})
}

// windowAt returns a program's window record, creating (and FIFO-
// registering) it on first use and evicting the oldest built window
// beyond the retention bound. Evicted windows are simply forgotten:
// cells still holding the pointer finish against it, and a later cell
// rebuilds an identical window from the deterministic compile. Called
// with s.mu held.
func (s *sweepState) windowAt(ps *progSweep, start int) *sweepWindow {
	w, ok := ps.windows[start]
	if !ok {
		w = &sweepWindow{}
		ps.windows[start] = w
		s.built = append(s.built, windowKey{ps.prog, start})
		for len(s.built) > maxBuiltWindows {
			old := s.built[0]
			s.built = s.built[1:]
			if ops, ok := s.progs[old.prog]; ok {
				delete(ops.windows, old.start)
			}
		}
	}
	return w
}

// sim returns (creating on first use) a program's replay memo slot.
func (s *sweepState) sim(ps *progSweep, key simKey) *simCell {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc, ok := ps.sims[key]
	if !ok {
		sc = &simCell{}
		ps.sims[key] = sc
	}
	return sc
}

// traceFor returns the binary's trace, generating it into a pooled
// buffer on first use (or after an earlier release). Callers must pair
// a successful acquisition with releaseTrace after their replay.
func (s *sweepState) traceFor(ev *Evaluator, ps *progSweep, name string, bt *BatchBinary) (*trace.Trace, error) {
	s.mu.Lock()
	slot, ok := ps.traces[bt.FP]
	if !ok {
		slot = &traceSlot{remaining: s.batches}
		ps.traces[bt.FP] = slot
	}
	live := len(ps.traces)
	s.mu.Unlock()
	if live > maxLiveTraces {
		s.evictIdleTraces(ps, slot)
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.tr == nil {
		tr, err := ev.GenerateTrace(name, bt.Prog)
		if err != nil {
			return nil, err
		}
		slot.tr = tr
	}
	slot.using++
	return slot.tr, nil
}

// evictIdleTraces returns idle generated traces (no replay mid-read) to
// the pool, keeping the slots' range bookkeeping; a later range
// regenerates deterministically from its binary. Busy slots are skipped
// (TryLock), never stalled.
func (s *sweepState) evictIdleTraces(ps *progSweep, keep *traceSlot) {
	s.mu.Lock()
	slots := make([]*traceSlot, 0, len(ps.traces))
	for _, sl := range ps.traces {
		if sl != keep {
			slots = append(slots, sl)
		}
	}
	s.mu.Unlock()
	for _, sl := range slots {
		if !sl.mu.TryLock() {
			continue
		}
		if sl.using == 0 && sl.tr != nil {
			trace.Put(sl.tr)
			sl.tr = nil
		}
		sl.mu.Unlock()
	}
}

// releaseTrace retires one architecture range of the binary's trace
// after a replay read it, returning the buffer to the pool (and
// forgetting the slot) once every range has been simulated.
func (s *sweepState) releaseTrace(ps *progSweep, fp codegen.Fingerprint) {
	s.retireRange(ps, fp, true)
}

// skipRange retires one architecture range whose replay was answered by
// the result store: no trace was read, but the range bookkeeping must
// advance all the same, or a binary with a mix of cached and fresh
// ranges would pin its trace buffer until the program retires.
func (s *sweepState) skipRange(ps *progSweep, fp codegen.Fingerprint) {
	s.retireRange(ps, fp, false)
}

// retireRange is the shared tail: drop the range (and, for a replay
// that read the trace, the read hold), free the buffer when no range
// and no reader remains. A skip may arrive before any slot exists -
// the store answered before the first trace generation - in which case
// it creates the slot so later ranges inherit correct counts.
func (s *sweepState) retireRange(ps *progSweep, fp codegen.Fingerprint, read bool) {
	s.mu.Lock()
	slot := ps.traces[fp]
	if slot == nil {
		if read {
			s.mu.Unlock()
			return
		}
		slot = &traceSlot{remaining: s.batches}
		ps.traces[fp] = slot
	}
	s.mu.Unlock()
	slot.mu.Lock()
	if read {
		slot.using--
	}
	slot.remaining--
	done := slot.remaining == 0 && slot.using == 0
	var tr *trace.Trace
	if done {
		tr, slot.tr = slot.tr, nil
	}
	slot.mu.Unlock()
	if done {
		s.mu.Lock()
		delete(ps.traces, fp)
		s.mu.Unlock()
		if tr != nil {
			trace.Put(tr)
		}
	}
}

// runCellBatched executes one grid cell through the sweep state:
// identical observable behaviour to runCell, with compilation hoisted
// into the cell's window and trace generation and replay deduplicated
// across byte-identical binaries.
func runCellBatched(ev *Evaluator, s *sweepState, c exploreCell) (ExploreResult, error) {
	req := s.req
	name := req.Programs[c.prog]
	ps := s.prog(c.prog)

	start := (c.opt / s.window) * s.window
	w := s.builtWindow(ev, ps, name, start)

	if w.err != nil {
		s.consume(ps)
		return ExploreResult{}, &pcerr.SimError{Program: name, Setting: c.opt, Arch: c.archStart, Err: w.err}
	}
	li := c.opt - start
	bt := &w.bt[li]
	if bt.Err != nil {
		s.consume(ps)
		return ExploreResult{}, &pcerr.SimError{Program: name, Setting: c.opt, Arch: c.archStart, Err: bt.Err}
	}

	// Twin settings (bt.First != li, or a fingerprint owned by an
	// earlier window) resolve their replay from the memo below - or
	// compute it once for all of them - without generating another
	// trace.
	sc := s.sim(ps, simKey{fp: bt.FP, lo: c.archStart, hi: c.archEnd})
	sc.once.Do(func() {
		archs := req.Archs[c.archStart:c.archEnd]
		// A persistent store answers before any trace exists: the
		// binary fingerprint plus workload parameters address the
		// previous run's replay of exactly this range.
		st := ev.resultStore()
		var runs int
		if st != nil {
			var err error
			if runs, err = ev.Runs(name); err == nil {
				if results, ok := st.Get(bt.FP, runs, ev.cfg, archs); ok {
					sc.runs, sc.results = runs, results
					s.skipRange(ps, bt.FP)
					return
				}
			}
		}
		tr, err := s.traceFor(ev, ps, name, bt)
		if err != nil {
			sc.err = err
			return
		}
		runs = tr.Runs
		if runs < 1 {
			runs = 1
		}
		sc.runs = runs
		sc.results = ev.SimulateBatch(tr, archs)
		s.releaseTrace(ps, bt.FP)
		if st != nil {
			st.Put(bt.FP, runs, ev.cfg, archs, sc.results)
		}
	})
	s.consume(ps)
	if sc.err != nil {
		return ExploreResult{}, &pcerr.SimError{Program: name, Setting: c.opt, Arch: c.archStart, Err: sc.err}
	}

	return ExploreResult{
		ProgIndex: c.prog,
		OptIndex:  c.opt,
		ArchStart: c.archStart,
		Program:   name,
		Config:    req.Opts[c.opt],
		Runs:      sc.runs,
		Results:   sc.results,
	}, nil
}

// countReuses records a freshly built window's fingerprints against the
// program's registry and returns how many of its settings reuse an
// earlier setting's byte-identical binary (within the window or across
// windows). A rebuilt window contributes nothing: its start is already
// marked counted.
func (s *sweepState) countReuses(ps *progSweep, start int, bt []BatchBinary) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ps.counted[start] {
		return 0
	}
	ps.counted[start] = true
	var reuses int64
	for i := range bt {
		if bt[i].Err != nil {
			continue
		}
		if bt[i].First != i || ps.seenFPs[bt[i].FP] {
			reuses++
			continue
		}
		ps.seenFPs[bt[i].FP] = true
	}
	return reuses
}

// consume retires one cell; when a program's whole grid has been
// consumed (always, on local runs) its state - windows, memos, trace
// slots - is released.
func (s *sweepState) consume(ps *progSweep) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps.cellsLeft--
	if ps.cellsLeft == 0 {
		delete(s.progs, ps.prog)
		keep := s.built[:0]
		for _, k := range s.built {
			if k.prog != ps.prog {
				keep = append(keep, k)
			}
		}
		s.built = keep
	}
}
