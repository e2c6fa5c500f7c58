// Command benchgate turns `go test -bench -benchmem` output into a
// committed JSON baseline and gates changes against it. It reads the
// benchmark stream on stdin, extracts ns/op, B/op and allocs/op per
// benchmark, and compares allocs/op against the baseline: allocation
// counts are deterministic enough to gate in CI, while wall time on a
// shared runner is not (ns/op and B/op are recorded for the record but
// never fail the build).
//
// Usage:
//
//	go test -run='^$' -bench=. -benchtime=1x -benchmem ./... | benchgate -baseline BENCH_10.json
//	go test -run='^$' -bench=. -benchtime=1x -benchmem ./... | benchgate -baseline BENCH_10.json -update
//
// A benchmark regresses when its allocs/op exceeds the baseline by more
// than both the relative tolerance and the absolute slack — the slack
// absorbs worker-goroutine count differences across machines with
// different GOMAXPROCS, the relative bound catches real per-iteration
// leaks on the big counts.
//
// -time-gate opts into gating ns/op too, with a variance-aware
// tolerance: feed a -count>1 stream and the effective headroom is the
// larger of -time-tolerance and -time-spread-mult times the run's own
// relative repetition spread, so a noisy machine widens its own gate
// instead of failing on jitter. -match restricts gating (and the
// missing-from-run and unbaselined checks) to benchmark names matching
// a regexp, which is how CI time-gates only the curated stable
// kernels (scripts/bench.sh -time-kernels) while the full suite stays
// allocation-only (DESIGN §7 documents the policy).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's recorded cost. Allocs gates; the rest is
// context for humans reading the baseline diff.
type Metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// finite reports whether every recorded float is NaN/Inf-free.
// strconv.ParseFloat happily parses "NaN" and "+Inf", and
// encoding/json then fails at runtime writing the baseline — reject
// the line as garbage input instead.
func (m *Metrics) finite() bool {
	return !math.IsNaN(m.NsPerOp) && !math.IsInf(m.NsPerOp, 0) &&
		!math.IsNaN(m.BytesPerOp) && !math.IsInf(m.BytesPerOp, 0) &&
		!math.IsNaN(m.AllocsPerOp) && !math.IsInf(m.AllocsPerOp, 0)
}

// Baseline is the committed BENCH_10.json shape.
type Baseline struct {
	Note       string             `json:"note"`
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

// canonicalName strips the -N the testing package appends to benchmark
// names when GOMAXPROCS != 1, so baselines travel across machines. A
// blanket `-\d+$` strip would also eat parameterized sub-benchmark
// names like AblationSVDCadence/batch-4, so only the exact
// -<GOMAXPROCS> of this process is removed — benchgate consumes the
// stream on the machine that produced it, so the two agree.
func canonicalName(field string) string {
	name := strings.TrimPrefix(field, "Benchmark")
	if procs := runtime.GOMAXPROCS(0); procs != 1 {
		name = strings.TrimSuffix(name, fmt.Sprintf("-%d", procs))
	}
	return name
}

// parseBench returns the merged metrics per benchmark plus every ns/op
// observation (one per -count repetition), which the time gate uses to
// measure this run's own spread.
func parseBench(r *bufio.Scanner) (map[string]Metrics, map[string][]float64, error) {
	out := map[string]Metrics{}
	samples := map[string][]float64{}
	for r.Scan() {
		fields := strings.Fields(r.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := canonicalName(fields[0])
		var m Metrics
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp = v
				seen = true
			case "B/op":
				m.BytesPerOp = v
			case "allocs/op":
				m.AllocsPerOp = v
			}
		}
		if !seen || !m.finite() {
			continue
		}
		samples[name] = append(samples[name], m.NsPerOp)
		if prev, ok := out[name]; ok && prev.AllocsPerOp > m.AllocsPerOp {
			// -count>1 or duplicate names: keep the worst observation so
			// the gate never passes on a lucky run.
			continue
		}
		out[name] = m
	}
	// Record the mean ns/op across repetitions, not whichever duplicate
	// carried the worst allocs: allocation gating wants the worst case,
	// wall-time gating the central tendency.
	for name, ns := range samples {
		m := out[name]
		m.NsPerOp = mean(ns)
		out[name] = m
	}
	return out, samples, r.Err()
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// relSpread is (max-min)/mean over one benchmark's repetitions — the
// run's own noise level, which the time gate's tolerance adapts to.
func relSpread(xs []float64) float64 {
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	m := mean(xs)
	if m <= 0 {
		return 0
	}
	return (hi - lo) / m
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_10.json", "committed baseline to compare against (or write with -update)")
	update := flag.Bool("update", false, "rewrite the baseline from this run instead of gating")
	out := flag.String("out", "", "optional path to write this run's parsed metrics (CI artifact)")
	tolerance := flag.Float64("tolerance", 0.15, "relative allocs/op headroom before a regression fires")
	slack := flag.Float64("slack", 4, "absolute allocs/op headroom (absorbs GOMAXPROCS-dependent worker spawns)")
	timeGate := flag.Bool("time-gate", false, "also gate ns/op against the baseline (off by default: shared-runner wall time is noise; opt in via scripts/bench.sh -time-gate)")
	timeTolerance := flag.Float64("time-tolerance", 0.25, "minimum relative ns/op headroom when -time-gate is on")
	timeSpreadMult := flag.Float64("time-spread-mult", 3, "variance adaptation: effective ns/op tolerance is max(time-tolerance, mult × this run's relative repetition spread)")
	match := flag.String("match", "", "regexp restricting gating to matching benchmark names; non-matching baseline entries and observations are ignored (curates the -time-gate subset)")
	flag.Parse()

	var matchRe *regexp.Regexp
	if *match != "" {
		re, err := regexp.Compile(*match)
		if err != nil {
			fatalf("bad -match regexp: %v", err)
		}
		matchRe = re
	}
	gated := func(name string) bool { return matchRe == nil || matchRe.MatchString(name) }

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	observed, samples, err := parseBench(sc)
	if err != nil {
		fatalf("reading benchmark stream: %v", err)
	}
	if len(observed) == 0 {
		fatalf("no benchmark results on stdin (run with -bench=. -benchmem)")
	}

	if *out != "" {
		writeJSON(*out, &Baseline{Note: "observed run (not the committed baseline)", Benchmarks: observed})
	}

	if *update {
		writeJSON(*baselinePath, &Baseline{
			Note:       "allocs/op baseline for scripts/bench.sh; regenerate with `make bench-update`",
			Benchmarks: observed,
		})
		fmt.Printf("benchgate: wrote %s (%d benchmarks)\n", *baselinePath, len(observed))
		return
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatalf("reading baseline: %v (run `make bench-update` to create it)", err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatalf("parsing %s: %v", *baselinePath, err)
	}

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		if gated(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if matchRe != nil && len(names) == 0 {
		fatalf("-match %q selects no baselined benchmark", *match)
	}

	regressions := 0
	for _, name := range names {
		want := base.Benchmarks[name]
		got, ok := observed[name]
		if !ok {
			fmt.Printf("benchgate: FAIL %-40s missing from run (baseline %.0f allocs/op)\n", name, want.AllocsPerOp)
			regressions++
			continue
		}
		limit := want.AllocsPerOp*(1+*tolerance) + *slack
		if got.AllocsPerOp > limit {
			fmt.Printf("benchgate: FAIL %-40s %.0f allocs/op > limit %.1f (baseline %.0f)\n",
				name, got.AllocsPerOp, limit, want.AllocsPerOp)
			regressions++
		} else if got.AllocsPerOp < want.AllocsPerOp {
			fmt.Printf("benchgate: improved %-36s %.0f allocs/op (baseline %.0f; refresh with `make bench-update`)\n",
				name, got.AllocsPerOp, want.AllocsPerOp)
		}
		if *timeGate && want.NsPerOp > 0 {
			tol := *timeTolerance
			if ns := samples[name]; len(ns) > 1 {
				if adaptive := relSpread(ns) * *timeSpreadMult; adaptive > tol {
					tol = adaptive
				}
			}
			if limit := want.NsPerOp * (1 + tol); got.NsPerOp > limit {
				fmt.Printf("benchgate: FAIL %-40s %.0f ns/op > limit %.0f (baseline %.0f, tolerance %.0f%%)\n",
					name, got.NsPerOp, limit, want.NsPerOp, tol*100)
				regressions++
			}
		}
	}
	var unbaselined []string
	for name := range observed {
		if _, ok := base.Benchmarks[name]; !ok && gated(name) {
			unbaselined = append(unbaselined, name)
		}
	}
	sort.Strings(unbaselined)
	for _, name := range unbaselined {
		fmt.Printf("benchgate: note: %s not in baseline; add it with `make bench-update`\n", name)
	}
	if regressions > 0 {
		fatalf("%d regression(s) against %s", regressions, *baselinePath)
	}
	budget := "allocation budget"
	if *timeGate {
		budget = "allocation and wall-time budgets"
	}
	fmt.Printf("benchgate: %d benchmarks within %s\n", len(names), budget)
}

func writeJSON(path string, b *Baseline) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		fatalf("encoding %s: %v", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatalf("writing %s: %v", path, err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
