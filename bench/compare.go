package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one workload × end-to-end metric row.
const (
	within     = "within"
	improved   = "improved"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// classify compares one end-to-end metric of two runs of one workload.
// tol is the larger of the metric's relative bound on the old median
// and its absolute floor. When either run's own spread over its
// repetitions (metricValue.spread) is wider than tol the medians prove
// nothing and the row is
// unresolved, unless every repetition of one run beats every repetition
// of the other. Otherwise a median that moved by more than tol is
// improved or regressed, and one that moved by less is within.
func classify(d metricDef, old, new metricValue) (verdict string, tol float64) {
	tol = math.Max(d.bound*math.Abs(old.Value), d.floor)
	worse := new.Value - old.Value
	apart := new.Min > old.Max || new.Max < old.Min
	if d.better == "higher" {
		worse = -worse
	}
	switch {
	case math.Max(old.spread(), new.spread()) > tol && !apart:
		return unresolved, tol
	case worse > tol:
		return regressed, tol
	case -worse > tol:
		return improved, tol
	}
	return within, tol
}

func readResults(path string) (results, error) {
	var r results
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// timedRuns indexes a results file's timed runs by workload.
func timedRuns(r results) map[string]runResult {
	out := make(map[string]runResult)
	for _, run := range r.Runs {
		if !run.Traced {
			out[run.Workload] = run
		}
	}
	return out
}

func failedShare(r runResult) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// endToEndByName indexes a run's end-to-end metrics and holds them to the
// dictionary: a results file of another schema, or an edited one, is an
// error and not a comparison.
func endToEndByName(r runResult) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(r.EndToEnd))
	for _, mv := range r.EndToEnd {
		out[mv.Name] = mv
	}
	for _, d := range endToEnd {
		if _, ok := out[d.name]; !ok {
			return nil, fmt.Errorf("%s: no end-to-end metric %s", r.Workload, d.name)
		}
	}
	if len(out) != len(endToEnd) || len(r.EndToEnd) != len(endToEnd) {
		return nil, fmt.Errorf("%s: %d end-to-end metrics, the dictionary has %d", r.Workload, len(r.EndToEnd), len(endToEnd))
	}
	return out, nil
}

// compareResults prints one row per workload × end-to-end metric that
// both files hold, every ratio beside its base, and returns whether the
// new results are acceptable: no regressed row and no higher failed
// share. Files that cannot be compared are an error: no workload in
// common, a workload run on different seeds, a metric missing.
func compareResults(w io.Writer, old, new results) (bool, error) {
	ok := true
	common := 0
	oldRuns, newRuns := timedRuns(old), timedRuns(new)
	fmt.Fprintf(w, "%-17s %-12s %12s %12s %9s %10s  %s\n", "workload", "metric", "old", "new", "new/old", "tolerance", "verdict")
	for _, name := range workloadNames {
		o, haveOld := oldRuns[name]
		n, haveNew := newRuns[name]
		if !haveOld || !haveNew {
			continue
		}
		common++
		if o.Seed != n.Seed {
			return false, fmt.Errorf("%s: seed %d in the old file, %d in the new", name, o.Seed, n.Seed)
		}
		oldVals, err := endToEndByName(o)
		if err != nil {
			return false, fmt.Errorf("old file: %w", err)
		}
		newVals, err := endToEndByName(n)
		if err != nil {
			return false, fmt.Errorf("new file: %w", err)
		}
		for _, d := range endToEnd {
			ov, nv := oldVals[d.name], newVals[d.name]
			verdict, tol := classify(d, ov, nv)
			ok = ok && verdict != regressed
			fmt.Fprintf(w, "%-17s %-12s %12.6g %12.6g %9.4f %10.4g  %s (%s %s, old n=%d min %.6g max %.6g, new n=%d min %.6g max %.6g)\n",
				name, d.name, ov.Value, nv.Value, nv.Value/ov.Value, tol, verdict, d.better, d.unit, ov.N, ov.Min, ov.Max, nv.N, nv.Min, nv.Max)
		}
		of, nf := failedShare(o), failedShare(n)
		verdict := within
		if nf > of {
			verdict, ok = regressed, false
		}
		fmt.Fprintf(w, "%-17s %-12s %12.6g %12.6g %9s %10g  %s (%d of %d, then %d of %d)\n",
			name, "failed_share", of, nf, "-", 0.0, verdict, o.Failed, o.Attempted, n.Failed, n.Attempted)
	}
	if common == 0 {
		return false, fmt.Errorf("the two files have no timed workload in common")
	}
	return ok, nil
}

// compareFiles is the -compare command; it returns the exit code: 0
// acceptable, 1 regressed, 2 the files could not be compared.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	old, err := readResults(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -compare:", err)
		return 2
	}
	cur, err := readResults(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -compare:", err)
		return 2
	}
	fmt.Fprintf(w, "old: commit %s   new: commit %s\n", old.Header.Commit, cur.Header.Commit)
	ok, err := compareResults(w, old, cur)
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "bench -compare:", err)
		return 2
	case !ok:
		return 1
	}
	return 0
}
