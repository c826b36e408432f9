// Package features assembles the feature vectors of the paper's model:
// x = (c, d) where c are the 11 performance counters of Table 1 measured
// from a single run of the program compiled at -O3 on the target
// microarchitecture, and d are the 8 microarchitecture descriptors of
// Table 2.
package features

import (
	"math"

	"portcc/internal/cpu"
	"portcc/internal/uarch"
)

// NumCounters is the number of Table 1 performance counters.
const NumCounters = 11

// NumDescriptors is the number of Table 2 microarchitecture descriptors.
const NumDescriptors = 8

// Dim is the full feature dimensionality.
const Dim = NumDescriptors + NumCounters

// CounterNames returns the Figure 9 labels of the counters, in vector order.
func CounterNames() []string {
	return []string{
		"IPC",
		"dec_acc_rate",
		"reg_acc_rate",
		"bpred_acc_rate",
		"icache_acc_rate",
		"icache_miss_rate",
		"dcache_acc_rate",
		"dcache_miss_rate",
		"ALU_usg",
		"MAC_usg",
		"Shft_usg",
	}
}

// Names returns all feature labels: descriptors first (matching
// uarch.DescriptorNames), then counters, as on the Figure 9 axis.
func Names() []string {
	return append(uarch.DescriptorNames(), CounterNames()...)
}

// Counters extracts the 11-element counter vector c from a simulation of
// the O3-compiled program.
func Counters(r *cpu.Result) []float64 {
	cyc := float64(r.Cycles)
	if cyc == 0 {
		cyc = 1
	}
	icAcc := float64(r.ICAccesses)
	dcAcc := float64(r.DCAccesses)
	icMissRate := 0.0
	if icAcc > 0 {
		icMissRate = float64(r.ICMisses) / icAcc
	}
	dcMissRate := 0.0
	if dcAcc > 0 {
		dcMissRate = float64(r.DCMisses) / dcAcc
	}
	return []float64{
		float64(r.Insns) / cyc,
		float64(r.Decodes) / cyc,
		float64(r.RegReads+r.RegWrites) / cyc,
		float64(r.BTBLookups) / cyc,
		icAcc / cyc,
		icMissRate,
		dcAcc / cyc,
		dcMissRate,
		float64(r.ALUOps) / cyc,
		float64(r.MACOps) / cyc,
		float64(r.ShiftOps) / cyc,
	}
}

// Vector concatenates descriptors and counters into x = (c, d). The
// descriptor block comes first to match the Figure 9 axis ordering.
func Vector(cfg uarch.Config, r *cpu.Result) []float64 {
	return append(cfg.Descriptors(), Counters(r)...)
}

// Normalizer z-scores feature vectors with statistics estimated from a
// training set, so Euclidean distances weight every feature comparably.
type Normalizer struct {
	Mean, Std []float64
}

// NewNormalizer estimates per-dimension mean and standard deviation.
// Dimensions with zero variance get Std 1 (they contribute nothing to
// distances either way).
func NewNormalizer(vecs [][]float64) *Normalizer {
	if len(vecs) == 0 {
		return &Normalizer{}
	}
	d := len(vecs[0])
	n := &Normalizer{Mean: make([]float64, d), Std: make([]float64, d)}
	for _, v := range vecs {
		for i, x := range v {
			n.Mean[i] += x
		}
	}
	for i := range n.Mean {
		n.Mean[i] /= float64(len(vecs))
	}
	for _, v := range vecs {
		for i, x := range v {
			dx := x - n.Mean[i]
			n.Std[i] += dx * dx
		}
	}
	for i := range n.Std {
		n.Std[i] = math.Sqrt(n.Std[i] / float64(len(vecs)))
		if n.Std[i] < 1e-12 {
			n.Std[i] = 1
		}
	}
	return n
}

// Apply returns the z-scored copy of v.
func (n *Normalizer) Apply(v []float64) []float64 {
	if len(n.Mean) == 0 {
		return append([]float64(nil), v...)
	}
	return n.ApplyInto(make([]float64, len(v)), v)
}

// ApplyInto writes the z-scored v into dst, which must hold len(v)
// elements, and returns dst: Apply without the allocation.
func (n *Normalizer) ApplyInto(dst, v []float64) []float64 {
	if len(n.Mean) == 0 {
		copy(dst, v)
		return dst
	}
	for i, x := range v {
		dst[i] = (x - n.Mean[i]) / n.Std[i]
	}
	return dst
}

// Distance is the Euclidean distance between two (normalised) vectors,
// the paper's evaluation function d(.,.) in equation (6).
func Distance(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
