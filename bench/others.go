package main

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"time"

	"esse/internal/acoustics"
	"esse/internal/cluster"
	"esse/internal/grid"
	"esse/internal/ocean"
	"esse/internal/rng"
	"esse/internal/sched"
)

// runAcousticClimate is the paper's second ensemble: thousands of short
// transmission-loss tasks through a pool. One repetition runs a fresh
// batch of ocean members (set-up), cuts sections through them and
// computes the whole task product once (the timed unit).
func runAcousticClimate(sp spec, opt options, tr *tracer, tl *tally) (measured, error) {
	m := measured{cycles: 1, values: make(map[string]sample)}
	vals := m.values
	g := grid.MontereyBay(sp.nx, sp.ny, sp.nz)
	master := rng.New(opt.seed)
	var timedWall, tracedWall, taskMS sample
	var deltas []memDelta
	var runErr error
	opt.repeat(sp.minReps, tr, func(rep int, t *tracer) bool {
		trace := t != nil
		repSpan := t.begin("bench", "rep", root(rep))
		defer t.end(repSpan)
		here := root(rep).under(repSpan)

		setupStart := time.Now()
		var sections []*acoustics.Section
		for mem := 0; mem < sp.climateMembers; mem++ {
			model := ocean.New(ocean.DefaultConfig(g), master.Split(uint64(rep*sp.climateMembers+mem)))
			t.clock("ocean", "Run(30)", here.forItem(mem), func() { model.Run(30) })
			state := model.State(nil)
			for sl := 0; sl < sp.climateSlices; sl++ {
				j := (sl + 1) * g.NY / (sp.climateSlices + 1)
				var sec *acoustics.Section
				var err error
				d := t.clock("acoustics", "ExtractSection", here.forItem(mem), func() {
					sec, err = acoustics.ExtractSection(model.Layout, state, 1, j, g.NX-2, j, 2*g.NX)
				})
				if err != nil {
					runErr = err
					return false
				}
				if trace {
					vals["acoustics.extract_section_us"] = append(vals["acoustics.extract_section_us"], d*1e6)
				}
				sections = append(sections, sec)
			}
		}
		climate := acoustics.ClimateSpec{
			Sections: sections, SourceDepths: sp.depths, FreqsKHz: sp.freqsKHz,
			Base: acoustics.DefaultTLConfig(), Workers: sp.workers,
		}
		setup := time.Since(setupStart).Seconds()

		before := readMem(trace)
		var res *acoustics.ClimateResult
		var err error
		t.clock("acoustics", "ComputeClimate", here, func() {
			res, err = acoustics.ComputeClimate(context.Background(), climate, nil)
		})
		if err != nil {
			runErr = err
			return false
		}
		mem := before.until(readMem(trace))

		tl.ops(climate.TaskCount(), res.Failed+res.Cancelled)
		tl.check(len(res.Tasks)+res.Failed+res.Cancelled == climate.TaskCount(),
			"rep %d: %d task results for %d tasks", rep, len(res.Tasks), climate.TaskCount())
		bad, busy := 0, 0.0
		for _, task := range res.Tasks {
			if !(task.MeanTL >= 40 && task.MeanTL <= 200) { // NaN fails too
				bad++
			}
			busy += task.Elapsed.Seconds()
		}
		tl.check(bad == 0, "rep %d: %d tasks with a mean TL outside [40, 200] dB", rep, bad)

		wall := res.Elapsed.Seconds()
		if trace {
			tracedWall = append(tracedWall, wall)
			deltas = append(deltas, mem)
			for _, task := range res.Tasks {
				taskMS = append(taskMS, task.Elapsed.Seconds()*1e3)
			}
			vals["acoustics.pool_busy_share"] = append(vals["acoustics.pool_busy_share"], busy/(float64(sp.workers)*wall))
			return true
		}
		timedWall = append(timedWall, wall)
		vals["setup_s"] = append(vals["setup_s"], setup)
		vals["unit_wall_s"] = append(vals["unit_wall_s"], wall)
		vals["items_per_s"] = append(vals["items_per_s"], float64(len(res.Tasks))/wall)
		return true
	})
	m.reps = len(timedWall)
	if runErr != nil || !opt.trace {
		return m, runErr
	}
	vals["acoustics.compute_tl_p50_ms"] = one(taskMS.quantile(0.5))
	vals["acoustics.compute_tl_p90_ms"] = one(taskMS.quantile(0.9))
	vals["bench.trace_overhead_share"] = overheadShare(timedWall, tracedWall)
	runtimeMetrics(vals, deltas, 1)
	return m, nil
}

// desCase is one line of the §5.2.1 matrix.
type desCase struct {
	name string
	jobs int
	run  func(c *cluster.Cluster, cfg sched.Config) *sched.Result
}

// desMatrix builds the six simulations of one unit: the three ESSE
// submissions and the acoustics follow-up of experiments.LocalTimings,
// then singleton and batched submission of the same ESSE jobs.
func desMatrix(sp spec) []desCase {
	esse := func(mod func(*sched.Config)) func(*cluster.Cluster, sched.Config) *sched.Result {
		return func(c *cluster.Cluster, cfg sched.Config) *sched.Result {
			mod(&cfg)
			return sched.Simulate(c, sp.esseJobs, sched.ESSEJob(), cfg)
		}
	}
	return []desCase{
		{"sge-local", sp.esseJobs, esse(func(*sched.Config) {})},
		{"sge-nfs", sp.esseJobs, esse(func(c *sched.Config) { c.IOMode = sched.MixedNFS })},
		{"condor-local", sp.esseJobs, esse(func(c *sched.Config) { c.Policy = sched.Condor })},
		{"acoustic-6000", sp.acousticJobs, func(c *cluster.Cluster, cfg sched.Config) *sched.Result {
			cfg.IOMode, cfg.PrestageMB = sched.MixedNFS, 0
			return sched.Simulate(c, sp.acousticJobs, sched.AcousticJob(), cfg)
		}},
		{"singletons", sp.esseJobs, esse(func(c *sched.Config) { c.JobArray = false })},
		{"batched-4", sp.esseJobs, func(c *cluster.Cluster, cfg sched.Config) *sched.Result {
			return sched.SimulateBatched(c, sp.esseJobs, sched.ESSEJob(), cfg, 4)
		}},
	}
}

// runClusterSim drives the sched/cluster discrete-event simulator: one
// unit is the whole matrix for one DES seed, seed·1000+i for unit i.
func runClusterSim(sp spec, opt options, tr *tracer, tl *tally) (measured, error) {
	m := measured{cycles: 1, values: make(map[string]sample)}
	vals := m.values
	var timedWall, tracedWall sample
	var timedJobs, tracedJobs int
	var firstDigest uint64
	var deltas []memDelta

	// unit runs the matrix for DES seed i and returns its set-up and wall
	// time, the jobs it simulated and the digest of its makespans.
	unit := func(i int, t *tracer) (setup, wall float64, jobs int, digest uint64) {
		repSpan := t.begin("bench", "seed", root(i))
		defer t.end(repSpan)
		here := root(i).under(repSpan)

		setupStart := time.Now()
		c := cluster.MITAvailable(sp.cores)
		cfg := sched.DefaultConfig()
		cfg.Seed = opt.seed*1000 + uint64(i)
		matrix := desMatrix(sp)
		setup = time.Since(setupStart).Seconds()

		h := fnv.New64a()
		for _, cs := range matrix {
			var res *sched.Result
			d := t.clock("sched", cs.name, here, func() { res = cs.run(c, cfg) })
			wall += d
			jobs += cs.jobs
			tl.ops(1, 0)
			tl.check(res.JobsCompleted+res.JobsFailed == cs.jobs,
				"seed %d %s: %d completed + %d failed of %d jobs", i, cs.name, res.JobsCompleted, res.JobsFailed, cs.jobs)
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(res.Makespan))
			h.Write(b[:])
			if t != nil {
				vals["sched.simulate_ms."+cs.name] = append(vals["sched.simulate_ms."+cs.name], d*1e3)
			}
		}
		return setup, wall, jobs, h.Sum64()
	}

	opt.repeat(sp.minSeeds, tr, func(i int, t *tracer) bool {
		trace := t != nil
		before := readMem(trace)
		setup, wall, jobs, digest := unit(i, t)
		if trace {
			deltas = append(deltas, before.until(readMem(true)))
			tracedWall, tracedJobs = append(tracedWall, wall), tracedJobs+jobs
		} else {
			timedWall, timedJobs = append(timedWall, wall), timedJobs+jobs
			vals["setup_s"] = append(vals["setup_s"], setup)
			vals["unit_wall_s"] = append(vals["unit_wall_s"], wall)
		}
		if i == 0 {
			firstDigest = digest
		}
		return true
	})
	// The simulator is a pure function of its seed: unit 0 again must
	// give the same makespans to the last bit.
	_, _, _, again := unit(0, nil)
	tl.check(again == firstDigest, "makespan digest of seed %d did not repeat: %x then %x", opt.seed*1000, firstDigest, again)

	m.reps = len(timedWall)
	vals["items_per_s"] = one(float64(timedJobs) / timedWall.sum())
	if !opt.trace {
		return m, nil
	}
	// The FNV-64 digest is reported folded to 32 bits: a JSON number
	// holds that exactly.
	vals["sched.makespan_digest"] = one(float64(uint32(firstDigest) ^ uint32(firstDigest>>32)))
	allocs := 0.0
	for _, d := range deltas {
		allocs += d.allocs
	}
	vals["sched.allocs_per_job"] = one(allocs / float64(tracedJobs))
	vals["bench.trace_overhead_share"] = overheadShare(timedWall, tracedWall)
	runtimeMetrics(vals, deltas, 1)
	return m, nil
}
