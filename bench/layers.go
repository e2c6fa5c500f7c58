package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// memCounters is a reading of the Go runtime's allocation and GC totals.
type memCounters struct {
	bytes, mallocs, pauseNS uint64
	gcs                     uint32
}

// memDelta is what the runtime did between two readings.
type memDelta struct {
	mb, allocs, gcs, pauseMS float64
}

// readMem reads the counters, or nothing in the timed run:
// runtime.ReadMemStats stops the world.
func readMem(on bool) memCounters {
	if !on {
		return memCounters{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{bytes: ms.TotalAlloc, mallocs: ms.Mallocs, pauseNS: ms.PauseTotalNs, gcs: ms.NumGC}
}

func (a memCounters) until(b memCounters) memDelta {
	return memDelta{
		mb:      float64(b.bytes-a.bytes) / 1e6,
		allocs:  float64(b.mallocs - a.mallocs),
		gcs:     float64(b.gcs - a.gcs),
		pauseMS: float64(b.pauseNS-a.pauseNS) / 1e6,
	}
}

// runtimeMetrics reports the traced repetitions' memory behaviour per
// operation (cycle, climate or DES seed) and the process's peak RSS.
func runtimeMetrics(vals map[string]sample, deltas []memDelta, opsPerDelta float64) {
	for _, d := range deltas {
		vals["runtime.alloc_mb_per_op"] = append(vals["runtime.alloc_mb_per_op"], d.mb/opsPerDelta)
		vals["runtime.allocs_per_op"] = append(vals["runtime.allocs_per_op"], d.allocs/opsPerDelta)
		vals["runtime.gc_cycles"] = append(vals["runtime.gc_cycles"], d.gcs/opsPerDelta)
		vals["runtime.gc_pause_ms"] = append(vals["runtime.gc_pause_ms"], d.pauseMS/opsPerDelta)
	}
	vals["runtime.peak_rss_mb"] = one(peakRSSMB())
}

// peakRSSMB reads VmHWM from /proc/self/status, 0 where there is none.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// overheadShare is (traced − timed) ÷ timed on a workload's main timing,
// taken between the fastest repetition of each kind: a traced run has
// only a few of either, and the fastest is the one other processes
// disturbed least.
func overheadShare(timed, traced sample) sample {
	if len(timed) == 0 || len(traced) == 0 {
		return nil
	}
	base := timed.sorted()[0]
	return one((traced.sorted()[0] - base) / base)
}

// layers fills in the per-layer metrics of a cycle workload: the ones
// read in situ from the traced repetitions' spans and results, the
// serial oracle, and the replays of each layer on the last repetition's
// data.
func (w *cycleWorkload) layers(vals map[string]sample, timed, traced []repStat, last *lastRep, tr *tracer) error {
	workers := float64(w.sp.workers)
	outer := "member" // the call the engine's pool makes
	if w.shape.tracked {
		outer = "resumable"
	}
	type key struct{ rep, cycle int }
	runnerSum := make(map[key]float64)
	started := make(map[int]int)
	var walls sample
	for _, s := range tr.named(outer) {
		runnerSum[key{s.Rep, s.Cycle}] += s.seconds()
		started[s.Rep]++
		walls = append(walls, s.seconds())
	}
	gaps := make(map[int]float64)
	for _, s := range tr.named("svd-round-gap") {
		gaps[s.Rep] += s.seconds()
	}

	add := func(name string, v float64) { vals[name] = append(vals[name], v) }
	var timedWall, tracedWall sample
	for _, st := range timed {
		timedWall = append(timedWall, st.wall())
	}
	var deltas []memDelta
	for _, st := range traced {
		rep := st.rep
		k := float64(len(st.cycles))
		ens := st.sum(func(c cycleStat) float64 { return c.ensemble })
		busy, stall := 0.0, 0.0
		for c, cs := range st.cycles {
			busy += runnerSum[key{rep, c}]
			stall += cs.ensemble - runnerSum[key{rep, c}]/workers
		}
		used := st.sum(func(c cycleStat) float64 { return float64(c.used) })
		add("realtime.ensemble_s", ens/k)
		add("realtime.outside_ensemble_s", (st.wall()-ens)/k)
		add("workflow.worker_busy_share", busy/(workers*ens))
		add("workflow.coord_stall_s", stall/k)
		add("workflow.svd_round_gap_s", gaps[rep]/k)
		add("workflow.svd_rounds", st.sum(func(c cycleStat) float64 { return float64(c.rounds) }))
		add("workflow.members_used", used)
		add("workflow.members_cancelled", st.sum(func(c cycleStat) float64 { return float64(c.cancelled) }))
		add("workflow.members_failed", st.sum(func(c cycleStat) float64 { return float64(c.failed) }))
		add("workflow.pool_growths", st.sum(func(c cycleStat) float64 { return float64(c.growths) }))
		add("workflow.wasted_share", (float64(started[rep])-used)/float64(started[rep]))
		ratios := make(sample, 0, len(st.cycles))
		for _, c := range st.cycles {
			ratios = append(ratios, c.rmseAnalysis/c.rmseForecast)
		}
		add("core.skill_ratio", ratios.median())
		lastCycle := st.cycles[len(st.cycles)-1]
		add("core.rho_final", lastCycle.rho)
		add("core.subspace_rank", float64(lastCycle.rank))
		tracedWall = append(tracedWall, st.wall())
		deltas = append(deltas, st.mem)
	}
	vals["workflow.member_wall_p50_s"] = one(walls.quantile(0.5))
	vals["workflow.member_wall_p90_s"] = one(walls.quantile(0.9))
	vals["bench.trace_overhead_share"] = overheadShare(timedWall, tracedWall)
	runtimeMetrics(vals, deltas, float64(w.shape.cycles))

	if w.shape.tracked {
		w.jobdirMetrics(vals, tr, last.sys.Layout.Dim())
	}
	if w.shape.fixed() {
		if err := w.serialOracle(vals, timed, traced); err != nil {
			return fmt.Errorf("serial oracle: %w", err)
		}
	}
	return w.replay(vals, last, tr)
}

// jobdirMetrics splits every tracked runner call into the member's own
// work and what jobdir added round it: the self time of the "resumable"
// span is a save when the call reached the inner runner and a load when
// it did not.
func (w *cycleWorkload) jobdirMetrics(vals map[string]sample, tr *tracer, stateDim int) {
	inner := make(map[int]float64) // parent span id → inner runner seconds
	for _, s := range tr.named("member") {
		inner[s.Parent] = s.seconds()
	}
	var saves, loads sample
	coldDone := make([]map[int]bool, len(w.cold))
	for k, c := range w.cold {
		coldDone[k] = make(map[int]bool, len(c.indices))
		for _, i := range c.indices {
			coldDone[k][i] = true
		}
	}
	recomputed := 0
	for _, s := range tr.named("resumable") {
		in, reached := inner[s.ID]
		if reached {
			saves = append(saves, (s.seconds()-in)*1e6)
			if s.Cycle < len(coldDone) && coldDone[s.Cycle][s.Item] {
				recomputed++
			}
		} else {
			loads = append(loads, s.seconds()*1e6)
		}
	}
	vals["jobdir.bytes_per_member_computed"] = one(float64(16 + 8*stateDim)) // length, state, checksum
	if w.name == wPaper {
		vals["jobdir.save_us"] = one(saves.median())
		return
	}
	vals["jobdir.load_us"] = one(loads.median())
	vals["jobdir.resume_hit_share"] = one(float64(len(loads)) / float64(len(loads)+len(saves)))
	w.tl.check(recomputed == 0, "resume recomputed %d members the cold pass had completed", recomputed)
}

// serialOracle runs cycle 0 once through the plain single-threaded
// engine: the baseline of workflow.speedup_vs_serial, and the oracle the
// parallel spectrum must equal.
func (w *cycleWorkload) serialOracle(vals map[string]sample, timed, traced []repStat) error {
	serial := *w
	serial.shape.cycles = 1
	serial.ref = nil
	st, _, err := serial.runRep(-1, nil, true, "")
	if err != nil {
		return err
	}
	w.tl.check(sameSigma(st.cycles[0].sigma, w.ref[0].sigma), "parallel cycle-0 sigma differs from the serial oracle's")
	var parallel sample
	for _, r := range append(append([]repStat(nil), timed...), traced...) {
		parallel = append(parallel, r.cycles[0].wall)
	}
	vals["workflow.speedup_vs_serial"] = one(st.cycles[0].wall / parallel.median())
	return nil
}
