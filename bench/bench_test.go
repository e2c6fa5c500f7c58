package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"esse/internal/core"
	"esse/internal/workflow"
)

// tinySpec runs every workload through the benchmark's own code at a
// size that fits a unit test: 8×8×2 grid, 8 members, 20 TL tasks, 1 seed.
func tinySpec() spec {
	return spec{
		nx: 8, ny: 8, nz: 2,
		workers:  2,
		minReps:  1,
		forecast: cycleShape{cycles: 2, steps: 20, initial: 8, max: 8, batch: 8, criterion: never},
		svd:      cycleShape{cycles: 1, steps: 2, initial: 8, max: 8, batch: 2, criterion: never},
		paper: cycleShape{cycles: 2, steps: 10, initial: 4, max: 8, batch: 2,
			criterion: core.ConvergenceCriterion{MinSimilarity: 0.99, MaxVarianceChange: 0.05},
			snapshots: 6, rank: 4, tracked: true},
		climateMembers: 2, climateSlices: 2,
		depths:   []float64{10, 30, 50, 80, 120},
		freqsKHz: []float64{1},
		cores:    16, esseJobs: 20, acousticJobs: 40,
		minSeeds: 1,
	}
}

func tinyOptions(t *testing.T, trace bool) options {
	return options{seed: 1, seconds: 0, trace: trace, outDir: t.TempDir()}
}

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesDictionary holds BENCHMARK.json to the metric
// dictionary in metrics.go and to the contract's caps.
func TestBenchmarkJSONMatchesDictionary(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(b.Workloads) > 8 || len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Fatalf("over the caps: %d workloads, %d end-to-end, %d per-layer", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		use(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the program has %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the dictionary %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		use(m.Name)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the dictionary %s %s %s %g", i, m, d.name, d.unit, d.better, d.bound)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range b.PerLayer {
		use(m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the dictionary %s %s %s", i, m, d.name, d.unit, d.better)
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bad unit %q or direction %q", m.Name, m.Unit, m.Better)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
}

// TestEveryWorkloadEmitsEveryMetric drives each workload, timed and
// traced, and checks that every metric of the dictionary comes out once,
// finite and with its unit: measured where the workload exercises the
// layer, 0 with no samples where it bypasses it.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			opt := tinyOptions(t, trace)
			r, err := runWorkload(name, tinySpec(), opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !r.Correct {
				t.Errorf("%s trace=%v: failed checks: %v", name, trace, r.Failures)
			}
			if r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s trace=%v: %d attempted, %d failed", name, trace, r.Attempted, r.Failed)
			}
			check := func(defs []metricDef, got []metricValue) {
				if len(got) != len(defs) {
					t.Fatalf("%s trace=%v: %d metrics, want %d", name, trace, len(got), len(defs))
				}
				for i, d := range defs {
					mv := got[i]
					if mv.Name != d.name || mv.Unit != d.unit {
						t.Errorf("%s: metric %d is %s [%s], want %s [%s]", name, i, mv.Name, mv.Unit, d.name, d.unit)
					}
					if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
						t.Errorf("%s: %s = %v", name, d.name, mv.Value)
					}
					if applies := d.appliesTo(name); applies != (mv.N > 0) {
						t.Errorf("%s: %s applies=%v but has %d samples", name, d.name, applies, mv.N)
					}
					if mv.N == 0 && mv.Value != 0 {
						t.Errorf("%s: %s bypassed but reads %v", name, d.name, mv.Value)
					}
				}
			}
			check(endToEnd, r.EndToEnd)
			for _, mv := range r.EndToEnd {
				if !(mv.Value > 0) {
					t.Errorf("%s: end-to-end %s = %v, must never be 0", name, mv.Name, mv.Value)
				}
			}
			if !trace {
				if r.PerLayer != nil {
					t.Errorf("%s: timed run reported per-layer metrics", name)
				}
				continue
			}
			check(perLayer, r.PerLayer)
			line, err := r.contractLine()
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Metrics map[string]struct{ Unit string }
			}
			if err := json.Unmarshal(line, &out); err != nil || len(out.Metrics) != len(perLayer) {
				t.Errorf("%s: contract line holds %d metrics (%v), want %d", name, len(out.Metrics), err, len(perLayer))
			}
			var sf spansFile
			data, err := os.ReadFile(filepath.Join(opt.outDir, name+".spans.json"))
			if err == nil {
				err = json.Unmarshal(data, &sf)
			}
			if err != nil || len(sf.Spans) == 0 {
				t.Fatalf("%s: spans file: %v (%d spans)", name, err, len(sf.Spans))
			}
			for layer, s := range sf.SelfSeconds {
				if s < 0 {
					t.Errorf("%s: layer %s has self time %v", name, layer, s)
				}
			}
		}
	}
}

// TestChecksFire injects the two faulty members of ROADMAP item 1 and
// expects the run to be reported as incorrect, not as a fast success.
func TestChecksFire(t *testing.T) {
	faults := map[string]func([]float64) []float64{
		"NaN member":         func(s []float64) []float64 { s[len(s)/2] = math.NaN(); return s },
		"wrong-length state": func(s []float64) []float64 { return s[:len(s)-1] },
	}
	for what, corrupt := range faults {
		sp := tinySpec()
		sp.wrapInner = func(r workflow.MemberRunner) workflow.MemberRunner {
			return func(ctx context.Context, index int) ([]float64, error) {
				state, err := r(ctx, index)
				if err == nil && index == 3 {
					state = corrupt(state)
				}
				return state, err
			}
		}
		r, err := runWorkload(wForecast, sp, tinyOptions(t, false))
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if r.Correct || r.Failed == 0 || len(r.Failures) == 0 {
			t.Errorf("%s: run reported correct=%v failed=%d failures=%v", what, r.Correct, r.Failed, r.Failures)
		}
	}
}

func TestSelfSeconds(t *testing.T) {
	// A 10 s parent with two overlapping children covering [1,5] and
	// [3,7] and a grandchild: coverage is a union, not a sum.
	spans := []span{
		{ID: 1, Layer: "realtime", StartNS: 0, EndNS: 10e9},
		{ID: 2, Parent: 1, Layer: "workflow", StartNS: 1e9, EndNS: 5e9},
		{ID: 3, Parent: 1, Layer: "workflow", StartNS: 3e9, EndNS: 7e9},
		{ID: 4, Parent: 3, Layer: "jobdir", StartNS: 6e9, EndNS: 7e9},
	}
	self := selfSeconds(spans)
	want := map[string]float64{"realtime": 4, "workflow": 7, "jobdir": 1}
	for layer, w := range want {
		if math.Abs(self[layer]-w) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], w)
		}
	}
}

func TestCompareClassifies(t *testing.T) {
	lower := metricDef{name: "unit_wall_s", better: "lower", bound: 0.10, floor: 0.03}
	higher := metricDef{name: "items_per_s", better: "higher", bound: 0.10}
	mv := func(v, lo, hi float64) metricValue { return metricValue{Value: v, Min: lo, Max: hi, N: 3} }
	// Many units a run: the range is wide, the quartiles are not.
	many := metricValue{Value: 0.11, Min: 0.09, Max: 0.16, P25: 0.105, P75: 0.115, N: 80}
	cases := []struct {
		d        metricDef
		old, new metricValue
		want     string
	}{
		{lower, mv(2, 1.95, 2.05), mv(2.1, 2.05, 2.15), within},
		{lower, mv(2, 1.95, 2.05), mv(2.5, 2.45, 2.55), regressed},
		{lower, mv(2, 1.95, 2.05), mv(1.5, 1.45, 1.55), improved},
		{lower, mv(2, 1.7, 2.3), mv(2.05, 1.9, 2.2), unresolved},    // spread beyond the bound, runs overlap
		{lower, mv(2, 1.7, 2.3), mv(1.2, 1.0, 1.4), improved},       // noisy, but every new run beats every old one
		{lower, mv(0.1, 0.09, 0.11), mv(0.125, 0.12, 0.13), within}, // 25 % worse but inside the absolute floor
		{lower, many, many, within},                                 // judged on its quartiles, not on the extremes of 80 samples
		{higher, mv(100, 98, 102), mv(80, 78, 82), regressed},
		{higher, mv(100, 98, 102), mv(120, 118, 122), improved},
		{higher, mv(100, 98, 102), mv(95, 93, 97), within},
	}
	for i, c := range cases {
		if got, _ := classify(c.d, c.old, c.new); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}

	run := func(failed int, wall float64) results {
		e2e := make([]metricValue, len(endToEnd))
		for i, d := range endToEnd {
			e2e[i] = metricValue{Name: d.name, Unit: d.unit, Value: 10, Min: 10, Max: 10, N: 3}
		}
		e2e[1] = mv(wall, wall, wall)
		e2e[1].Name = endToEnd[1].name
		return results{Runs: []runResult{{Workload: wSVD, Seed: 1, Attempted: 100, Failed: failed, EndToEnd: e2e}}}
	}
	var buf bytes.Buffer
	accepted := func(old, new results) bool {
		ok, err := compareResults(&buf, old, new)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if !accepted(run(0, 5), run(0, 5.2)) {
		t.Errorf("a 4 %% slower run was rejected:\n%s", buf.String())
	}
	if accepted(run(0, 5), run(0, 5*(1+endToEnd[1].bound+0.1))) {
		t.Error("a run slower by more than the bound was accepted")
	}
	if accepted(run(0, 5), run(1, 5)) {
		t.Error("a higher failed share was accepted")
	}
	if !strings.Contains(buf.String(), "svd-bound") || !strings.Contains(buf.String(), "failed_share") {
		t.Errorf("comparison table lacks its rows:\n%s", buf.String())
	}
	// Metrics are found by name: another order compares the same, ...
	swapped := run(0, 5.2)
	e := swapped.Runs[0].EndToEnd
	e[0], e[2] = e[2], e[0]
	if !accepted(run(0, 5), swapped) {
		t.Error("the order of the metrics in the file changed the verdict")
	}
	// ... and files that cannot be compared are an error, not a verdict.
	short := run(0, 5)
	short.Runs[0].EndToEnd = short.Runs[0].EndToEnd[:2]
	unknown := run(0, 5)
	unknown.Runs[0].EndToEnd[0].Name = "cycle_wall_s"
	otherSeed := run(0, 5)
	otherSeed.Runs[0].Seed = 2
	otherWorkload := run(0, 5)
	otherWorkload.Runs[0].Workload = wCluster
	for what, bad := range map[string]results{
		"a missing metric": short, "an unknown metric": unknown, "another seed": otherSeed,
		"no workload in common": otherWorkload, "an empty file": {},
	} {
		if _, err := compareResults(&buf, run(0, 5), bad); err == nil {
			t.Errorf("%s was compared without an error", what)
		}
	}
}
