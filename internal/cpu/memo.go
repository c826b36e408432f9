package cpu

import (
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
	"sync"

	"portcc/internal/isa"
	"portcc/internal/trace"
)

// DataMemo memoises data-cache stack outcomes by content. A data-cache
// lruStack reads nothing of a trace but its load/store sequence (address
// plus load-vs-store) and yields nothing but its members' miss counters,
// so two traces that issue byte-identical memory streams - binaries that
// differ only in code layout, in the scheduling of non-memory
// instructions or in branch shape - produce identical counters on every
// cache geometry. The memo keys each stack's counters by (sha256 digest
// of the memory stream, set mask, block size, member associativities),
// and SimulateBatchMemo answers a keyed stack from it instead of sweeping
// the stream again. Results are bit-identical with or without a memo.
//
// The memo holds at most dataMemoCap entries (FIFO eviction), so its
// footprint is bounded however long it lives. Safe for concurrent use; a
// worker pool shares one.
type DataMemo struct {
	mu sync.Mutex
	m  map[dataMemoKey][]uint64 // per member, ascending assoc: load, store misses
	// fifo is the insertion order, a ring once full; head is the oldest
	// entry's slot.
	fifo []dataMemoKey
	head int
}

// dataMemoCap bounds the memo's entries: one entry costs about 160
// bytes of heap with its key-ring slot, and a small-scale generation run
// fills about 6,500.
const dataMemoCap = 1 << 14

// dataMemoKey identifies one data-cache stack replay: the memory stream
// and the stack's geometry, assocs carrying bit log2(a) for each member
// associativity a.
type dataMemoKey struct {
	stream  [sha256.Size]byte
	setMask uint32
	blockLg uint32
	assocs  uint64
}

// NewDataMemo returns an empty memo.
func NewDataMemo() *DataMemo {
	return &DataMemo{m: map[dataMemoKey][]uint64{}}
}

// len returns the number of memoised stack outcomes.
func (d *DataMemo) len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.m)
}

// memoKey is the memo key of stack s replaying the given stream.
func memoKey(stream *[sha256.Size]byte, s *lruStack) dataMemoKey {
	k := dataMemoKey{stream: *stream, setMask: s.setMask, blockLg: s.blockLg}
	for _, m := range s.members {
		k.assocs |= 1 << bits.TrailingZeros(uint(m.assoc))
	}
	return k
}

// lookup answers every stack of dcs it holds, copying the memoised
// counters into the stack's members (sorted ascending, as finalize
// leaves them), and appends the stacks it cannot answer to sweep. It
// returns the grown sweep list and the number of stacks answered.
func (d *DataMemo) lookup(stream *[sha256.Size]byte, dcs, sweep []*lruStack) ([]*lruStack, int) {
	hits := 0
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range dcs {
		counts, ok := d.m[memoKey(stream, s)]
		if !ok {
			sweep = append(sweep, s)
			continue
		}
		for i, m := range s.members {
			m.loadMisses, m.storeMisses = counts[2*i], counts[2*i+1]
			m.misses = m.loadMisses + m.storeMisses
		}
		hits++
	}
	return sweep, hits
}

// store records the counters of stacks that swept the whole stream,
// evicting the oldest entries beyond dataMemoCap.
func (d *DataMemo) store(stream *[sha256.Size]byte, swept []*lruStack) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range swept {
		k := memoKey(stream, s)
		if _, ok := d.m[k]; ok {
			continue // a concurrent replay of the same stream got here first
		}
		counts := make([]uint64, 2*len(s.members))
		for i, m := range s.members {
			counts[2*i], counts[2*i+1] = m.loadMisses, m.storeMisses
		}
		d.m[k] = counts
		if len(d.fifo) < dataMemoCap {
			d.fifo = append(d.fifo, k)
			continue
		}
		delete(d.m, d.fifo[d.head])
		d.fifo[d.head] = k
		d.head = (d.head + 1) % dataMemoCap
	}
}

// memHashChunk is the size of the staging buffer the stream digest
// feeds sha256 from.
const memHashChunk = 8 << 10

// memStreamDigest hashes the trace's data-cache access sequence - each
// load or store as its little-endian 32-bit address followed by a kind
// byte (0 load, 1 store), in trace order - the same fixed-width
// canonical serialisation discipline as codegen.Fingerprint. The hasher
// and staging buffer live in the scratch arena, so the pre-pass
// allocates nothing in steady state.
func (sc *simScratch) memStreamDigest(evs []trace.Event) [sha256.Size]byte {
	if sc.hasher == nil {
		sc.hasher = sha256.New()
		sc.hashBuf = make([]byte, 0, memHashChunk)
	}
	h := sc.hasher
	h.Reset()
	buf := sc.hashBuf[:0]
	for i := range evs {
		ev := &evs[i]
		var kind byte
		switch isa.Op(ev.Op) {
		case isa.OpLoad:
		case isa.OpStore:
			kind = 1
		default:
			continue
		}
		buf = binary.LittleEndian.AppendUint32(buf, ev.Addr)
		buf = append(buf, kind)
		if len(buf) > memHashChunk-5 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	var sum [sha256.Size]byte
	h.Sum(sc.hashBuf[:0])
	copy(sum[:], sc.hashBuf[:sha256.Size])
	return sum
}
