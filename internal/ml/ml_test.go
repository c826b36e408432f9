package ml

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"portcc/internal/features"
	"portcc/internal/opt"
)

func TestFitGoodFrequencies(t *testing.T) {
	// Three configs: flag 0 on in two of them -> theta = 2/3.
	var a, b, c opt.Config
	a.Flags[0] = true
	b.Flags[0] = true
	d, err := FitGood([]opt.Config{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Theta[0][1]-2.0/3) > 1e-12 {
		t.Errorf("theta[0][on] = %g, want 2/3", d.Theta[0][1])
	}
	if math.Abs(d.Theta[0][0]-1.0/3) > 1e-12 {
		t.Errorf("theta[0][off] = %g, want 1/3", d.Theta[0][0])
	}
}

func TestFitGoodEmpty(t *testing.T) {
	if _, err := FitGood(nil); err == nil {
		t.Error("empty good set accepted")
	}
}

func TestThetaSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var cs []opt.Config
		for i := 0; i < 12; i++ {
			cs = append(cs, opt.Random(rng))
		}
		d, err := FitGood(cs)
		if err != nil {
			return false
		}
		for l := 0; l < opt.NumDims; l++ {
			s := 0.0
			for j := 0; j < opt.DimSize(l); j++ {
				s += d.Theta[l][j]
			}
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModePicksArgmax(t *testing.T) {
	var on opt.Config
	on.Flags[opt.FGcse] = true
	d, _ := FitGood([]opt.Config{on, on, {}})
	mode := d.Mode()
	if !mode.Flag(opt.FGcse) {
		t.Error("mode must select the majority value")
	}
}

func TestTopGoodSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var configs []opt.Config
	var speedups []float64
	for i := 0; i < 100; i++ {
		configs = append(configs, opt.Random(rng))
		speedups = append(speedups, float64(i)) // strictly increasing
	}
	good := TopGood(configs, speedups)
	if len(good) != MinGoodCount {
		t.Fatalf("good set size %d, want MinGoodCount %d (5%% of 100 = 5 < floor)", len(good), MinGoodCount)
	}
	// They must be the 10 highest-speedup configs (indices 90..99).
	if good[0] != configs[99] {
		t.Error("best config not first in the good set")
	}
}

func TestGibbsInequality(t *testing.T) {
	// Cross-entropy H(p, q) is minimised at q = p (equation 2's basis).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var cs1, cs2 []opt.Config
		for i := 0; i < 15; i++ {
			cs1 = append(cs1, opt.Random(rng))
			cs2 = append(cs2, opt.Random(rng))
		}
		p, _ := FitGood(cs1)
		q, _ := FitGood(cs2)
		return CrossEntropy(&p, &p) <= CrossEntropy(&p, &q)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func makePair(name string, arch int, x []float64, flagOn opt.Flag) TrainingPair {
	var c opt.Config
	c.Flags[flagOn] = true
	g, _ := FitGood([]opt.Config{c, c, c})
	return TrainingPair{Prog: name, Arch: arch, X: x, G: g}
}

func TestKNNPrefersNearest(t *testing.T) {
	// Two clusters with opposite preferred flags; a query near cluster A
	// must inherit A's flag.
	var pairs []TrainingPair
	for i := 0; i < 8; i++ {
		pairs = append(pairs, makePair("a", i, []float64{0, float64(i) * 0.01}, opt.FUnrollLoops))
		pairs = append(pairs, makePair("b", i+8, []float64{10, float64(i) * 0.01}, opt.FScheduleInsns))
	}
	m := Train(pairs)
	got := m.Predict([]float64{0.1, 0})
	if !got.Flag(opt.FUnrollLoops) || got.Flag(opt.FScheduleInsns) {
		t.Error("prediction ignored the nearest cluster")
	}
	got = m.Predict([]float64{9.9, 0})
	if got.Flag(opt.FUnrollLoops) || !got.Flag(opt.FScheduleInsns) {
		t.Error("prediction ignored the nearest cluster (far side)")
	}
}

func TestExcludeMask(t *testing.T) {
	var pairs []TrainingPair
	for i := 0; i < 4; i++ {
		pairs = append(pairs, makePair("victim", i, []float64{0, 0}, opt.FUnrollLoops))
	}
	pairs = append(pairs, makePair("other", 99, []float64{5, 5}, opt.FScheduleInsns))
	m := Train(pairs)
	// Excluding "victim" leaves only the far pair.
	got := m.Predict([]float64{0, 0}, WithExclude("victim", -1))
	if got.Flag(opt.FUnrollLoops) {
		t.Error("excluded program leaked into the prediction")
	}
	if !got.Flag(opt.FScheduleInsns) {
		t.Error("remaining pair not used")
	}
}

func TestMixtureWeightsSumToOne(t *testing.T) {
	var pairs []TrainingPair
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		var cs []opt.Config
		for j := 0; j < 5; j++ {
			cs = append(cs, opt.Random(rng))
		}
		g, _ := FitGood(cs)
		pairs = append(pairs, TrainingPair{Prog: "p", Arch: i,
			X: []float64{rng.Float64(), rng.Float64()}, G: g})
	}
	m := Train(pairs)
	mix := m.Mixture([]float64{0.5, 0.5})
	for l := 0; l < opt.NumDims; l++ {
		s := 0.0
		for j := 0; j < opt.DimSize(l); j++ {
			s += mix.Theta[l][j]
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("mixture dimension %d sums to %g", l, s)
		}
	}
}

func TestEmptyNeighboursFallBackToUniform(t *testing.T) {
	m := Train([]TrainingPair{makePair("only", 0, []float64{1}, opt.FGcse)})
	mix := m.Mixture([]float64{1}, WithExclude("only", -1))
	for j := 0; j < 2; j++ {
		if math.Abs(mix.Theta[0][j]-0.5) > 1e-9 {
			t.Error("empty neighbour set must yield a uniform mixture")
		}
	}
}

// mixtureFullSort is the reference neighbour search Mixture must match
// bit for bit: every pair z-scored per query, all candidates sorted by
// (distance, Prog, Arch), the first K mixed.
func mixtureFullSort(m *Model, x []float64, opts ...PredictOption) Dist {
	set := applyPredictOptions(opts)
	k := m.KNeighbours
	if k <= 0 {
		k = K
	}
	beta := m.BetaValue
	if beta <= 0 {
		beta = Beta
	}
	nx := m.Norm.Apply(x)
	var nbrs []neighbour
	for i := range m.Pairs {
		p := &m.Pairs[i]
		if set.exclude != nil && set.exclude(p) {
			continue
		}
		nbrs = append(nbrs, neighbour{dist: features.Distance(nx, m.Norm.Apply(p.X)), pair: p})
	}
	sort.Slice(nbrs, func(a, b int) bool {
		if nbrs[a].dist != nbrs[b].dist {
			return nbrs[a].dist < nbrs[b].dist
		}
		if nbrs[a].pair.Prog != nbrs[b].pair.Prog {
			return nbrs[a].pair.Prog < nbrs[b].pair.Prog
		}
		return nbrs[a].pair.Arch < nbrs[b].pair.Arch
	})
	if len(nbrs) > k {
		nbrs = nbrs[:k]
	}
	var mix Dist
	if len(nbrs) == 0 {
		for l := 0; l < opt.NumDims; l++ {
			for j := 0; j < opt.DimSize(l); j++ {
				mix.Theta[l][j] = 1.0 / float64(opt.DimSize(l))
			}
		}
		return mix
	}
	d0 := nbrs[0].dist
	wsum := 0.0
	ws := make([]float64, len(nbrs))
	for i, nb := range nbrs {
		ws[i] = math.Exp(-beta * (nb.dist - d0))
		wsum += ws[i]
	}
	for i, nb := range nbrs {
		w := ws[i] / wsum
		for l := 0; l < opt.NumDims; l++ {
			for j := 0; j < opt.DimSize(l); j++ {
				mix.Theta[l][j] += w * nb.pair.G.Theta[l][j]
			}
		}
	}
	return mix
}

// randomPairs draws n training pairs over a few programs and many
// architectures, (Prog, Arch) unique. Every third pair copies an earlier
// pair's feature vector, so distance ties must fall to Prog, then Arch.
func randomPairs(rng *rand.Rand, n, dim int) []TrainingPair {
	progs := []string{"crc", "qsort", "dijkstra", "sha", "fft"}
	pairs := make([]TrainingPair, n)
	for i := range pairs {
		x := make([]float64, dim)
		if i >= 3 && i%3 == 0 {
			copy(x, pairs[rng.Intn(i)].X)
		} else {
			for d := range x {
				x[d] = rng.NormFloat64() * float64(d+1)
			}
		}
		var cs []opt.Config
		for j := 0; j < 4; j++ {
			cs = append(cs, opt.Random(rng))
		}
		g, _ := FitGood(cs)
		pairs[i] = TrainingPair{Prog: progs[i%len(progs)], Arch: i / len(progs), X: x, G: g}
	}
	return pairs
}

func sameDist(a, b *Dist) bool {
	for l := range a.Theta {
		for j := range a.Theta[l] {
			if math.Float64bits(a.Theta[l][j]) != math.Float64bits(b.Theta[l][j]) {
				return false
			}
		}
	}
	return true
}

// TestMixtureMatchesFullSort pins the bounded neighbour search to the
// full-sort reference bit for bit across K, exclusion masks, distance
// ties, an empty model and a literal Model without z-scored pairs.
func TestMixtureMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(60)
		pairs := randomPairs(rng, n, features.Dim)
		trained := Train(pairs)
		vecs := make([][]float64, n)
		for i := range pairs {
			vecs[i] = pairs[i].X
		}
		literal := &Model{Pairs: pairs, Norm: features.NewNormalizer(vecs)}
		queries := [][]float64{pairs[rng.Intn(n)].X} // a training vector: zero-distance ties
		for q := 0; q < 3; q++ {
			x := make([]float64, features.Dim)
			for d := range x {
				x[d] = rng.NormFloat64() * float64(d+1)
			}
			queries = append(queries, x)
		}
		p := pairs[rng.Intn(n)]
		masks := [][]PredictOption{nil, {WithExclude(p.Prog, p.Arch)}, {WithExclude("none", p.Arch)}}
		for _, k := range []int{0, 1, 7, n, n + 3} {
			for _, m := range []*Model{trained, literal} {
				m.KNeighbours = k
				m.BetaValue = []float64{0, 0.5, 2}[trial%3]
				for qi, x := range queries {
					for mi, opts := range masks {
						got, want := m.Mixture(x, opts...), mixtureFullSort(m, x, opts...)
						if !sameDist(&got, &want) {
							t.Fatalf("trial %d: %d pairs, K=%d, literal=%v, query %d, mask %d: mixture differs from the full sort",
								trial, n, k, m == literal, qi, mi)
						}
					}
				}
			}
		}
	}
	empty := Train(nil)
	got, want := empty.Mixture([]float64{1, 2}), mixtureFullSort(empty, []float64{1, 2})
	if !sameDist(&got, &want) {
		t.Error("empty model: mixture differs from the full sort")
	}
}

// syntheticModel trains a model on n random pairs of full feature
// dimension, the shape Mixture serves.
func syntheticModel(n int) (*Model, []float64) {
	rng := rand.New(rand.NewSource(int64(n)))
	m := Train(randomPairs(rng, n, features.Dim))
	x := make([]float64, features.Dim)
	for d := range x {
		x[d] = rng.NormFloat64()
	}
	return m, x
}

// TestMixtureAllocs pins the neighbour search's allocations: a constant,
// independent of the number of training pairs.
func TestMixtureAllocs(t *testing.T) {
	for _, n := range []int{40, 420} {
		m, x := syntheticModel(n)
		if allocs := testing.AllocsPerRun(50, func() { m.Mixture(x) }); allocs != 0 {
			t.Errorf("Mixture over %d pairs allocates %.0f objects, want 0", n, allocs)
		}
	}
}

var sinkDist Dist

// BenchmarkMixture measures one served query: the K=7 mixture over the
// 420 pairs of a small-scale model.
func BenchmarkMixture(b *testing.B) {
	m, x := syntheticModel(420)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDist = m.Mixture(x)
	}
}
