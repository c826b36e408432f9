package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"

	"portcc/internal/experiments"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// metricMap is metric_map.json.
type metricMap struct {
	About     string `json:"about"`
	Workloads map[string]struct {
		JobS     string   `json:"job_s"`
		Figures  []string `json:"figures"`
		Measured []string `json:"per_layer_measured"`
	} `json:"workloads"`
	Moves []struct {
		LayerMetric string   `json:"layer_metric"`
		Moves       []effect `json:"moves"`
		NoChange    []effect `json:"no_change"`
	} `json:"moves"`
}

type effect struct {
	Workload string `json:"workload"`
	Metric   string `json:"metric"`
	Figure   string `json:"figure"`
	PerLayer string `json:"per_layer"`
	Note     string `json:"note"`
}

func decodeStrict(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func loadBenchmark(t *testing.T) benchmarkFile {
	var b benchmarkFile
	decodeStrict(t, "../BENCHMARK.json", &b)
	return b
}

func loadMap(t *testing.T) metricMap {
	var m metricMap
	decodeStrict(t, "metric_map.json", &m)
	return m
}

// TestBenchmarkFile checks BENCHMARK.json's names, units and bounds,
// and that it declares exactly the metrics and workloads this package
// emits.
func TestBenchmarkFile(t *testing.T) {
	b := loadBenchmark(t)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	var workloadNames []string
	for _, w := range b.Workloads {
		name("workload", w.Name)
		workloadNames = append(workloadNames, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	for n := range workloads {
		if !slices.Contains(workloadNames, n) {
			t.Errorf("workload %s is not declared", n)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}

	var e2e, layer []spec
	var setupBound, maxOther float64
	for _, m := range b.EndToEnd {
		name("end_to_end", m.Name)
		e2e = append(e2e, spec{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxOther = max(maxOther, m.Bound)
		}
	}
	if setupBound <= maxOther {
		t.Errorf("setup_s bound %v is not the largest (others up to %v)", setupBound, maxOther)
	}
	for _, m := range b.PerLayer {
		name("per_layer", m.Name)
		layer = append(layer, spec{m.Name, m.Unit})
	}
	for _, m := range b.EndToEnd {
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range b.PerLayer {
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end %v, the benchmark emits %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("per_layer %v, the benchmark emits %v", layer, perLayer)
	}
}

// TestMetricMap checks that the layer-to-metric map names only
// declared workloads and metrics.
func TestMetricMap(t *testing.T) {
	b := loadBenchmark(t)
	m := loadMap(t)
	isE2E := map[string]bool{}
	for _, s := range b.EndToEnd {
		isE2E[s.Name] = true
	}
	isLayer := map[string]bool{}
	for _, s := range b.PerLayer {
		isLayer[s.Name] = true
	}
	for w, entry := range m.Workloads {
		if workloads[w] == nil {
			t.Errorf("map names unknown workload %q", w)
		}
		for _, n := range entry.Measured {
			if !isLayer[n] {
				t.Errorf("%s measures undeclared per-layer metric %q", w, n)
			}
		}
	}
	for _, mv := range m.Moves {
		if !isLayer[mv.LayerMetric] {
			t.Errorf("map entry for undeclared per-layer metric %q", mv.LayerMetric)
		}
		for _, e := range append(slices.Clone(mv.Moves), mv.NoChange...) {
			w, ok := m.Workloads[e.Workload]
			if !ok {
				t.Errorf("%s: unknown workload %q", mv.LayerMetric, e.Workload)
			}
			if e.Metric == "" && e.Figure == "" && e.PerLayer == "" {
				t.Errorf("%s on %s names no metric, figure or per-layer metric", mv.LayerMetric, e.Workload)
			}
			if e.PerLayer != "" && !slices.Contains(w.Measured, e.PerLayer) {
				t.Errorf("%s: %s does not measure per-layer metric %q", mv.LayerMetric, e.Workload, e.PerLayer)
			}
			if e.Metric != "" && !isE2E[e.Metric] {
				t.Errorf("%s: undeclared end-to-end metric %q", mv.LayerMetric, e.Metric)
			}
			if e.Figure != "" && !slices.Contains(w.Figures, e.Figure) {
				t.Errorf("%s: %s prints no figure %q", mv.LayerMetric, e.Workload, e.Figure)
			}
		}
	}
}

// TestWorkloadsSmoke runs every workload at tiny scale in both modes
// and checks the result line: correct, and carrying exactly the
// declared metrics, with every metric the map lists for the workload
// measured by the workload itself.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmark(t)
	m := loadMap(t)
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			t.Run(w.Name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				o := options{seed: 3, seconds: 0.05, trace: traced, scale: experiments.Tiny, workDir: t.TempDir()}
				rep, err := workloads[w.Name](o)
				if err != nil {
					t.Fatal(err)
				}
				res, err := finish(rep, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, %d of %d failed: %v", res.Correct, res.Failed, res.Attempted, rep.problems)
				}
				var declared []string
				if traced {
					for _, s := range b.PerLayer {
						declared = append(declared, s.Name)
					}
					for _, n := range m.Workloads[w.Name].Measured {
						if _, ok := rep.layer[n]; !ok {
							t.Errorf("%s is listed as measured but the workload did not emit it", n)
						}
					}
				} else {
					for _, s := range b.EndToEnd {
						declared = append(declared, s.Name)
						if v := res.Metrics[s.Name].Value; v <= 0 {
							t.Errorf("%s = %v, want > 0", s.Name, v)
						}
					}
				}
				var got []string
				for n := range res.Metrics {
					got = append(got, n)
				}
				slices.Sort(got)
				slices.Sort(declared)
				if !slices.Equal(got, declared) {
					t.Errorf("emitted %v, declared %v", got, declared)
				}
			})
		}
	}
}
