package cpu

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"portcc/internal/core"
	"portcc/internal/isa"
	"portcc/internal/opt"
	"portcc/internal/prog"
	"portcc/internal/trace"
	"portcc/internal/uarch"
)

// dcStacks counts the data-cache stacks a configuration set shares: one
// per (set count, block size) geometry.
func dcStacks(archs []uarch.Config) int {
	seen := map[dcKey]bool{}
	for _, a := range archs {
		s, b := geomBits(a.DL1Size, a.DL1Assoc, a.DL1Block)
		seen[dcKey{s, b}] = true
	}
	return len(seen)
}

// assertMemoReplay replays tr through memo and demands results equal to
// the memo-free engine and to per-architecture Simulate, returning the
// memo hit count.
func assertMemoReplay(t *testing.T, tr *trace.Trace, archs []uarch.Config, memo *DataMemo) int {
	t.Helper()
	got, hits := SimulateBatchMemo(tr, archs, 1, memo)
	free := SimulateBatch(tr, archs)
	for i, cfg := range archs {
		if got[i] != free[i] {
			t.Fatalf("config %d (%s): memo replay differs from memo-free replay:\n  got %+v\n want %+v",
				i, cfg.String(), got[i], free[i])
		}
		if want := Simulate(tr, cfg); got[i] != want {
			t.Fatalf("config %d (%s): memo replay differs from Simulate:\n  got %+v\n want %+v",
				i, cfg.String(), got[i], want)
		}
	}
	return hits
}

// shiftPCs returns a copy of tr with every instruction address moved:
// the memory stream is untouched, the fetch and branch streams differ.
func shiftPCs(tr *trace.Trace, by uint32) *trace.Trace {
	tw := *tr
	tw.Events = append([]trace.Event(nil), tr.Events...)
	for i := range tw.Events {
		tw.Events[i].PC += by
	}
	return &tw
}

// TestSimulateBatchMemoMatches is the memo's bit-identity property:
// replays answered from the data-stream memo equal memo-free
// SimulateBatch and per-architecture Simulate, and the memo answers
// exactly the replays whose memory stream and cache geometry it has
// seen.
func TestSimulateBatchMemoMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	archs := sampleArchs(rng, 16, true)
	stacks := dcStacks(archs)

	t.Run("real twins", func(t *testing.T) {
		// Settings of one program whose binaries differ but whose memory
		// streams agree: the second of each such pair is answered whole.
		m := prog.MustBuild("crc")
		optRng := rand.New(rand.NewSource(5))
		memo := NewDataMemo()
		seen := map[[32]byte][]uint32{}
		sc := getSimScratch()
		defer putSimScratch(sc)
		twins := 0
		for i := 0; i < 16; i++ {
			c := opt.Random(optRng)
			if i == 0 {
				c = opt.O3()
			}
			p, err := core.Compile(m, &c)
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.Generate(p, trace.Config{Runs: 1, MaxInsns: 20000, Seed: 3})
			d := sc.memStreamDigest(tr.Events)
			pcs := make([]uint32, len(tr.Events))
			for j := range tr.Events {
				pcs[j] = tr.Events[j].PC
			}
			prev, ok := seen[d]
			hits := assertMemoReplay(t, tr, archs, memo)
			if !ok {
				if hits != 0 {
					t.Fatalf("setting %d: fresh memory stream answered %d stacks from the memo", i, hits)
				}
				seen[d] = pcs
				continue
			}
			if hits != stacks {
				t.Fatalf("setting %d: repeated memory stream answered %d of %d stacks", i, hits, stacks)
			}
			if !slices.Equal(prev, pcs) {
				twins++
			}
		}
		if twins == 0 {
			t.Fatal("no setting pair with equal memory streams and different instruction streams; pick other settings")
		}
	})

	t.Run("shifted PCs", func(t *testing.T) {
		memo := NewDataMemo()
		base := traceFor(t, "gs")
		if hits := assertMemoReplay(t, base, archs, memo); hits != 0 {
			t.Fatalf("first replay answered %d stacks from an empty memo", hits)
		}
		if hits := assertMemoReplay(t, shiftPCs(base, 0x2000), archs, memo); hits != stacks {
			t.Fatalf("PC-shifted twin answered %d of %d stacks", hits, stacks)
		}
	})

	t.Run("other arch set, shared geometry", func(t *testing.T) {
		// A second configuration set keeps every data-cache geometry and
		// associativity but changes everything else: every stack hits.
		memo := NewDataMemo()
		tr := traceFor(t, "patricia")
		assertMemoReplay(t, tr, archs, memo)
		other := make([]uarch.Config, len(archs))
		for i, a := range archs {
			b := uarch.XScale()
			b.DL1Size, b.DL1Assoc, b.DL1Block = a.DL1Size, a.DL1Assoc, a.DL1Block
			b.IL1Size, b.IL1Assoc, b.IL1Block = 4<<10, 4, 16
			b.BTBSize, b.BTBAssoc = 128, 2
			b.FreqMHz = 200
			other[i] = b
		}
		if hits := assertMemoReplay(t, tr, other, memo); hits != stacks {
			t.Fatalf("same geometries under another arch set answered %d of %d stacks", hits, stacks)
		}
	})

	t.Run("member set is part of the key", func(t *testing.T) {
		// Two associativities over one (set count, block size) share a
		// stack; the same geometry with one member is another replay.
		memo := NewDataMemo()
		tr := traceFor(t, "patricia")
		a := uarch.XScale() // 32 KB, 32-way, 32 B blocks: 32 sets
		b := uarch.XScale()
		b.DL1Size, b.DL1Assoc = 16<<10, 16 // 32 sets too
		pair := []uarch.Config{a, b}
		for _, tc := range []struct {
			archs []uarch.Config
			hits  int
		}{{pair, 0}, {pair[:1], 0}, {pair, 1}, {pair[:1], 1}} {
			if hits := assertMemoReplay(t, tr, tc.archs, memo); hits != tc.hits {
				t.Fatalf("%d-member stack: %d memo hits, want %d", len(tc.archs), hits, tc.hits)
			}
		}
	})

	t.Run("load-store flip misses", func(t *testing.T) {
		memo := NewDataMemo()
		tr := traceFor(t, "gs")
		assertMemoReplay(t, tr, archs, memo)
		flip := shiftPCs(tr, 0)
		for i := range flip.Events {
			if isa.Op(flip.Events[i].Op) == isa.OpLoad {
				flip.Events[i].Op = uint8(isa.OpStore)
				flip.OpCount[isa.OpLoad]--
				flip.OpCount[isa.OpStore]++
				break
			}
		}
		if hits := assertMemoReplay(t, flip, archs, memo); hits != 0 {
			t.Fatalf("stream differing only in one load-vs-store answered %d stacks from the memo", hits)
		}
	})

	t.Run("wide configs bypass", func(t *testing.T) {
		memo := NewDataMemo()
		tr := traceFor(t, "crc")
		wide := append([]uarch.Config(nil), archs...)
		w3 := uarch.XScale()
		w3.Width = 3
		wide = append(wide, w3)
		for pass := 0; pass < 2; pass++ {
			if hits := assertMemoReplay(t, tr, wide, memo); hits != 0 {
				t.Fatalf("pass %d: a set with per-event states answered %d stacks from the memo", pass, hits)
			}
		}
		if n := memo.len(); n != 0 {
			t.Fatalf("a set with per-event states recorded %d memo entries", n)
		}
		// The per-event oracle mode bypasses it the same way.
		if _, hits := simulateBatch(tr, archs, 1, true, memo); hits != 0 || memo.len() != 0 {
			t.Fatalf("oracle mode used the memo: %d hits, %d entries", hits, memo.len())
		}
	})
}

// TestDataMemoBounded pins the memo's size bound: inserting beyond the
// cap evicts the oldest entries first.
func TestDataMemoBounded(t *testing.T) {
	memo := NewDataMemo()
	s := &lruStack{setMask: 63, blockLg: 5, members: []*cacheMember{{assoc: 4, loadMisses: 1}}}
	var first [32]byte
	for i := 0; i < dataMemoCap+10; i++ {
		var d [32]byte
		d[0], d[1], d[2] = byte(i), byte(i>>8), byte(i>>16)
		if i == 0 {
			first = d
		}
		memo.store(&d, []*lruStack{s})
	}
	if n := memo.len(); n != dataMemoCap {
		t.Fatalf("memo holds %d entries, cap is %d", n, dataMemoCap)
	}
	if _, hits := memo.lookup(&first, []*lruStack{s}, nil); hits != 0 {
		t.Fatal("oldest entry survived eviction")
	}
}

// FuzzSimulateBatchMemo replays each fuzzed trace twice through a shared
// memo - the second replay answering every data-cache stack from it -
// and demands both equal a fresh memo-free replay, also when the replay
// fans over workers. A set byte adds a width-3 configuration, whose
// per-event state must bypass the memo.
func FuzzSimulateBatchMemo(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	rng := rand.New(rand.NewSource(8))
	seq := make([]byte, 1, 1+6*400)
	for i := 0; i < 6*400; i++ {
		seq = append(seq, byte(rng.Intn(256)))
	}
	f.Add(seq)
	f.Add([]byte{1, 255, 255, 255, 255, 255, 255, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		rng := rand.New(rand.NewSource(int64(data[0] >> 1)))
		archs := sampleArchs(rng, 4, true)
		wide := data[0]&1 != 0
		if wide {
			w3 := uarch.XScale()
			w3.Width = 3
			archs = append(archs, w3)
		}
		tr := fuzzTrace(data[1:])
		fresh := SimulateBatch(tr, archs)
		memo := NewDataMemo()
		for pass, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			got, hits := SimulateBatchMemo(tr, archs, workers, memo)
			for i := range archs {
				if got[i] != fresh[i] {
					t.Fatalf("pass %d config %d (%s): memo replay differs from fresh:\n  got %+v\n want %+v",
						pass, i, archs[i].String(), got[i], fresh[i])
				}
			}
			want := 0
			if pass == 1 && !wide {
				want = dcStacks(archs)
			}
			if hits != want {
				t.Fatalf("pass %d (wide=%v): %d memo hits, want %d", pass, wide, hits, want)
			}
		}
	})
}
