// Command bench is the paper-scale end-to-end benchmark of the ESSE
// reproduction. It runs six workloads through the public API of
// esse/internal/..., each as a timed run (end-to-end metrics, no
// instrumentation) and a traced run (per-layer metrics from spans
// recorded round every call from here into a layer, and from replaying
// each layer's public function on the data the run produced). It edits
// nothing in the program; see README.md for the metric dictionary.
//
//	bench/run.sh                                   every workload, timed then traced
//	bench/run.sh --workload svd-bound --trace 0    one run, result as JSON on the last line
//	bench/run.sh -compare old.json new.json        classify the change between two results
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// header describes the machine and the run, so that a noisy run can be
// recognised after the fact.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	CPUModel   string  `json:"cpu_model"`
	LoadAvg1   float64 `json:"load_avg_1m"`
	LoadHigh   bool    `json:"load_high"`
}

func newHeader(sp spec, opt options) header {
	h := header{
		Commit: os.Getenv("BENCH_COMMIT"), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: sp.workers, Seed: opt.seed, Seconds: opt.seconds, CPUModel: "unknown",
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			h.LoadAvg1, _ = strconv.ParseFloat(f[0], 64) // unparsable reads as 0: no warning
		}
	}
	h.LoadHigh = h.LoadAvg1 > float64(h.NumCPU)/2
	return h
}

func (h header) print() {
	fmt.Printf("# commit %s  %s  nproc %d  GOMAXPROCS %d  workers %d  seed %d  seconds %g\n",
		h.Commit, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.Workers, h.Seed, h.Seconds)
	fmt.Printf("# cpu %s  load(1m) %.2f\n", h.CPUModel, h.LoadAvg1)
	if h.LoadHigh {
		fmt.Printf("# WARNING: 1-minute load average %.2f is above nproc/2; timings will be noisy\n", h.LoadAvg1)
	}
}

// results is the file a run leaves behind and -compare reads.
type results struct {
	Header header      `json:"header"`
	Runs   []runResult `json:"runs"`
}

// spansFile is <workload>.spans.json: every span of the traced run and
// each layer's self time.
type spansFile struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	SelfSeconds map[string]float64 `json:"self_seconds_by_layer"`
	Spans       []span             `json:"spans"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runWorkload runs one workload once, timed or traced, prints its
// metrics and writes its spans.
func runWorkload(name string, sp spec, opt options) (runResult, error) {
	var tr *tracer
	if opt.trace {
		tr = newTracer(name)
	}
	tl := &tally{}
	var m measured
	var err error
	switch name {
	case wForecast, wSVD, wPaper, wResume:
		m, err = runCycleWorkload(name, sp, opt, tr, tl)
	case wAcoustic:
		m, err = runAcousticClimate(sp, opt, tr, tl)
	case wCluster:
		m, err = runClusterSim(sp, opt, tr, tl)
	default:
		return runResult{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	tl.check(err == nil, "run aborted: %v", err)
	r := report(name, opt, m, tl)
	fmt.Printf("# %s: R=%d K=%d traced=%v\n", name, r.Reps, r.Cycles, r.Traced)
	r.print(os.Stdout)
	if tr != nil {
		path := filepath.Join(opt.outDir, name+".spans.json")
		err := writeJSON(path, spansFile{Workload: name, Seed: opt.seed, SelfSeconds: selfSeconds(tr.spans), Spans: tr.spans})
		if err != nil {
			return r, err
		}
	}
	return r, nil
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run, or all: every workload timed and then traced")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 12, "repeat each workload's unit for at least this long (and at least R times)")
		trace    = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		compare  = flag.Bool("compare", false, "compare two results files: bench -compare old.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	outDir := filepath.Join("bench", "out") // run.sh starts the program at the root of the checkout
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	runtime.GOMAXPROCS(procs)
	sp := paperSpec()
	opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: outDir}
	out := results{Header: newHeader(sp, opt)}
	out.Header.print()

	ok := true
	run := func(name string, o options) runResult {
		r, err := runWorkload(name, sp, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ok = false
		}
		ok = ok && r.Correct
		out.Runs = append(out.Runs, r)
		return r
	}
	var single *runResult
	if *workload == "all" {
		for _, name := range workloadNames {
			for _, traced := range []bool{false, true} {
				o := opt
				o.trace = traced
				run(name, o)
			}
		}
	} else {
		r := run(*workload, opt)
		single = &r
	}
	path := filepath.Join(outDir, "results.json")
	if err := writeJSON(path, out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("# wrote %s\n", path)
	if single != nil && len(single.EndToEnd) > 0 {
		line, err := single.contractLine()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
	}
	if !ok {
		os.Exit(1)
	}
}
