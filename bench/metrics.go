package main

import (
	"math"
	"slices"
	"sort"
)

// Workload names. BENCHMARK.json lists the same six.
const (
	wForecast = "forecast-bound"
	wSVD      = "svd-bound"
	wPaper    = "paper-cycle"
	wResume   = "paper-resume"
	wAcoustic = "acoustic-climate"
	wCluster  = "cluster-sim"
)

var workloadNames = []string{wForecast, wSVD, wPaper, wResume, wAcoustic, wCluster}

var (
	onAll    = workloadNames
	onCycles = []string{wForecast, wSVD, wPaper, wResume}
	onFixed  = []string{wForecast, wSVD}
	onPaper  = []string{wPaper, wResume}
)

// metricDef is one line of the metric dictionary. BENCHMARK.json carries
// name, unit, better and (end to end) bound; the rest is here and in
// README.md because the contract's schema has no place for it.
type metricDef struct {
	name, unit, better string
	bound              float64  // end to end only: share of the base a metric may worsen by
	floor              float64  // end to end only: absolute change below which nothing is a regression
	on                 []string // workloads whose run exercises the layer; the others report 0
}

func (d metricDef) appliesTo(workload string) bool { return slices.Contains(d.on, workload) }

// endToEnd are the metrics of the timed run. Every workload reports all
// of them; what a unit and an item are is fixed per workload (README.md).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, floor: 0.02, on: onAll},
	{name: "unit_wall_s", unit: "s", better: "lower", bound: 0.25, floor: 0.03, on: onAll},
	{name: "items_per_s", unit: "1/s", better: "higher", bound: 0.25, on: onAll},
}

// perLayer are the metrics of the traced run, layer = package name.
var perLayer = []metricDef{
	{name: "realtime.ensemble_s", unit: "s", better: "lower", on: onCycles},
	{name: "realtime.outside_ensemble_s", unit: "s", better: "lower", on: onCycles},
	{name: "workflow.member_wall_p50_s", unit: "s", better: "lower", on: onCycles},
	{name: "workflow.member_wall_p90_s", unit: "s", better: "lower", on: onCycles},
	{name: "workflow.worker_busy_share", unit: "ratio", better: "higher", on: onCycles},
	{name: "workflow.coord_stall_s", unit: "s", better: "lower", on: onCycles},
	{name: "workflow.svd_round_gap_s", unit: "s", better: "lower", on: onCycles},
	{name: "workflow.engine_overhead_us", unit: "us/member", better: "lower", on: onCycles},
	{name: "workflow.speedup_vs_serial", unit: "ratio", better: "higher", on: onFixed},
	{name: "workflow.svd_rounds", unit: "count", better: "lower", on: onCycles},
	{name: "workflow.members_used", unit: "count", better: "lower", on: onCycles},
	{name: "workflow.members_cancelled", unit: "count", better: "lower", on: onCycles},
	{name: "workflow.members_failed", unit: "count", better: "lower", on: onCycles},
	{name: "workflow.pool_growths", unit: "count", better: "lower", on: onCycles},
	{name: "workflow.wasted_share", unit: "ratio", better: "lower", on: onCycles},
	{name: "core.perturb_us", unit: "us", better: "lower", on: onCycles},
	{name: "core.accumulate_s", unit: "s", better: "lower", on: onCycles},
	{name: "core.subspace_svd_s", unit: "s", better: "lower", on: onCycles},
	{name: "core.subspace_svd_full_s", unit: "s", better: "lower", on: onCycles},
	{name: "core.converged_test_us", unit: "us", better: "lower", on: onCycles},
	{name: "core.assimilate_s", unit: "s", better: "lower", on: onCycles},
	{name: "core.skill_ratio", unit: "ratio", better: "lower", on: onCycles},
	{name: "core.rho_final", unit: "ratio", better: "higher", on: onCycles},
	{name: "core.subspace_rank", unit: "count", better: "higher", on: onCycles},
	{name: "core.ortho_defect", unit: "ratio", better: "lower", on: onCycles},
	{name: "linalg.thin_svd_gram_s", unit: "s", better: "lower", on: onCycles},
	{name: "linalg.symeig_s", unit: "s", better: "lower", on: onCycles},
	{name: "linalg.gram_gflops", unit: "GFLOP/s", better: "higher", on: onCycles},
	{name: "linalg.mul_tall_gflops", unit: "GFLOP/s", better: "higher", on: onCycles},
	{name: "linalg.gram_flops_computed", unit: "count", better: "lower", on: onCycles},
	{name: "linalg.gram_bytes_computed", unit: "B", better: "lower", on: onCycles},
	{name: "ocean.step_us", unit: "us", better: "lower", on: onCycles},
	{name: "ocean.cell_updates_per_s", unit: "1/s", better: "higher", on: onCycles},
	{name: "ocean.step_parallel_us", unit: "us", better: "lower", on: onCycles},
	{name: "ocean.member_forecast_s", unit: "s", better: "lower", on: onCycles},
	{name: "obs.sample_us", unit: "us", better: "lower", on: onCycles},
	{name: "obs.apply_hmat_us", unit: "us", better: "lower", on: onCycles},
	{name: "obs.count", unit: "count", better: "higher", on: onCycles},
	{name: "covstore.write_s", unit: "s", better: "lower", on: onPaper},
	{name: "covstore.read_s", unit: "s", better: "lower", on: onPaper},
	{name: "covstore.bytes_written", unit: "B", better: "lower", on: onPaper},
	{name: "covstore.write_mb_per_s", unit: "MB/s", better: "higher", on: onPaper},
	{name: "covstore.read_mb_per_s", unit: "MB/s", better: "higher", on: onPaper},
	{name: "jobdir.save_us", unit: "us", better: "lower", on: []string{wPaper}},
	{name: "jobdir.load_us", unit: "us", better: "lower", on: []string{wResume}},
	{name: "jobdir.bytes_per_member_computed", unit: "B", better: "lower", on: onPaper},
	{name: "jobdir.resume_hit_share", unit: "ratio", better: "higher", on: []string{wResume}},
	{name: "acoustics.compute_tl_p50_ms", unit: "ms", better: "lower", on: []string{wAcoustic}},
	{name: "acoustics.compute_tl_p90_ms", unit: "ms", better: "lower", on: []string{wAcoustic}},
	{name: "acoustics.pool_busy_share", unit: "ratio", better: "higher", on: []string{wAcoustic}},
	{name: "acoustics.extract_section_us", unit: "us", better: "lower", on: []string{wAcoustic}},
	{name: "sched.simulate_ms.sge-local", unit: "ms", better: "lower", on: []string{wCluster}},
	{name: "sched.simulate_ms.sge-nfs", unit: "ms", better: "lower", on: []string{wCluster}},
	{name: "sched.simulate_ms.condor-local", unit: "ms", better: "lower", on: []string{wCluster}},
	{name: "sched.simulate_ms.acoustic-6000", unit: "ms", better: "lower", on: []string{wCluster}},
	{name: "sched.simulate_ms.singletons", unit: "ms", better: "lower", on: []string{wCluster}},
	{name: "sched.simulate_ms.batched-4", unit: "ms", better: "lower", on: []string{wCluster}},
	{name: "sched.allocs_per_job", unit: "count", better: "lower", on: []string{wCluster}},
	{name: "sched.makespan_digest", unit: "hash", better: "lower", on: []string{wCluster}},
	{name: "runtime.peak_rss_mb", unit: "MB", better: "lower", on: onAll},
	{name: "runtime.alloc_mb_per_op", unit: "MB", better: "lower", on: onAll},
	{name: "runtime.allocs_per_op", unit: "count", better: "lower", on: onAll},
	{name: "runtime.gc_cycles", unit: "count", better: "lower", on: onAll},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", on: onAll},
	{name: "bench.trace_overhead_share", unit: "ratio", better: "lower", on: onAll},
}

// sample is the set of values one metric took over the repetitions of a
// run; the reported value is their median.
type sample []float64

func (s sample) sorted() []float64 {
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	return v
}

// quantile returns the q-quantile by linear interpolation, NaN if empty.
func (s sample) quantile(q float64) float64 {
	v := s.sorted()
	if len(v) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

func (s sample) median() float64 { return s.quantile(0.5) }

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// one is a metric measured once in the run.
func one(v float64) sample { return sample{v} }
