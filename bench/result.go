package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// tally counts the operations a run attempted and those that failed. A
// correctness check is an operation: a failed check counts as a failed
// operation, so failed ÷ attempted is the run's failed share.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) ops(attempted, failed int) {
	t.attempted += attempted
	t.failed += failed
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 20 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// check records one correctness check and its message if it failed.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.fail(format, args...)
	}
}

// measured is what a workload hands back: its samples by metric name.
type measured struct {
	reps, cycles int // R and K (K is 1 outside the cycle workloads)
	values       map[string]sample
}

// metricValue is one reported metric: the median over the repetitions,
// with the extremes and the count beside it.
type metricValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P25   float64 `json:"p25"`
	P75   float64 `json:"p75"`
	N     int     `json:"n"`
	// Samples are the repetitions' values in the order they were taken
	// (end-to-end metrics only), for whoever wants another estimator.
	Samples []float64 `json:"samples,omitempty"`
}

// spread is how far the repetitions of one run lie apart: the quartile
// distance once there are enough of them, the whole range below that.
// The range of many samples grows with their number (cluster-sim has 70
// and more units a run), so it cannot be held against a fixed tolerance.
func (m metricValue) spread() float64 {
	if m.N >= 4 {
		return m.P75 - m.P25
	}
	return m.Max - m.Min
}

// runResult is one workload's run as results.json keeps it.
type runResult struct {
	Workload  string        `json:"workload"`
	Seed      uint64        `json:"seed"`
	Traced    bool          `json:"traced"`
	Reps      int           `json:"reps"`
	Cycles    int           `json:"cycles"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Correct   bool          `json:"correct"`
	Failures  []string      `json:"failures,omitempty"`
	EndToEnd  []metricValue `json:"end_to_end"`
	PerLayer  []metricValue `json:"per_layer,omitempty"`
}

// report turns a workload's samples into its result: every end-to-end
// metric, and after a traced run every per-layer metric, in dictionary
// order. A metric the workload should have measured but did not, or
// measured as NaN or Inf, is a failed check; a per-layer metric of a
// layer the workload bypasses reads 0 with n = 0.
func report(workload string, opt options, m measured, tl *tally) runResult {
	pick := func(defs []metricDef, keep bool) []metricValue {
		out := make([]metricValue, 0, len(defs))
		for _, d := range defs {
			mv := metricValue{Name: d.name, Unit: d.unit}
			s, ok := m.values[d.name]
			switch {
			case !d.appliesTo(workload):
			case !ok || len(s) == 0:
				tl.check(false, "%s: %s not measured", workload, d.name)
			default:
				v := s.sorted()
				mv.Value, mv.Min, mv.Max, mv.N = s.median(), v[0], v[len(v)-1], len(v)
				mv.P25, mv.P75 = s.quantile(0.25), s.quantile(0.75)
				if keep {
					mv.Samples = s
				}
				ok := finite(mv.Value) && finite(mv.Min) && finite(mv.Max)
				tl.check(ok, "%s: %s is not finite", workload, d.name)
				if !ok {
					mv = metricValue{Name: d.name, Unit: d.unit, N: mv.N} // keep the file valid JSON
				}
			}
			out = append(out, mv)
		}
		return out
	}
	r := runResult{Workload: workload, Seed: opt.seed, Traced: opt.trace, Reps: m.reps, Cycles: m.cycles}
	r.EndToEnd = pick(endToEnd, true)
	if opt.trace {
		r.PerLayer = pick(perLayer, false)
	}
	r.Attempted, r.Failed, r.Failures = tl.attempted, tl.failed, tl.failures
	r.Correct = tl.failed == 0
	return r
}

// print writes every metric as "workload metric value unit", with the
// spread and sample count where there is one.
func (r runResult) print(w io.Writer) {
	for _, mv := range append(append([]metricValue(nil), r.EndToEnd...), r.PerLayer...) {
		if mv.N > 1 {
			fmt.Fprintf(w, "%s %s %.6g %s  (min %.6g max %.6g n=%d)\n", r.Workload, mv.Name, mv.Value, mv.Unit, mv.Min, mv.Max, mv.N)
		} else {
			fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, mv.Name, mv.Value, mv.Unit)
		}
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%s failed_share %.6g ratio  (%d failed of %d attempted)\n", r.Workload, share, r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%s FAILED %s\n", r.Workload, f)
	}
}

// contractLine is the one JSON object the driver reads from the last
// line of standard output: the end-to-end metrics of a timed run, the
// per-layer metrics of a traced one.
func (r runResult) contractLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv)
	from := r.EndToEnd
	if r.Traced {
		from = r.PerLayer
	}
	for _, m := range from {
		metrics[m.Name] = mv{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, metrics})
}
