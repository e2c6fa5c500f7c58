package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"esse/internal/core"
	"esse/internal/covstore"
	"esse/internal/grid"
	"esse/internal/linalg"
	"esse/internal/obs"
	"esse/internal/ocean"
	"esse/internal/rng"
	"esse/internal/workflow"
)

// replay measures each layer from outside by calling its public function
// again on the data the last traced repetition produced: the last
// cycle's anomaly matrix, mean and subspace. The program is not edited,
// so this is how a layer gets a number of its own.
func (w *cycleWorkload) replay(vals map[string]sample, l *lastRep, tr *tracer) error {
	id := tr.begin("bench", "replay", root(-1))
	defer tr.end(id)
	here := root(-1).under(id)
	streams := rng.New(w.opt.seed).Split(424242) // replay inputs only; the systems under test never see it

	ens := l.cycle.Ensemble
	a := ens.Anomalies
	rows, cols, batch := a.Rows, a.Cols, w.shape.batch
	ecfg := l.cfg.Ensemble

	// --- core: the coordinator's diff and SVD rounds, prefix by prefix ---
	var prefixes []int
	for n := batch; n < cols; n += batch {
		prefixes = append(prefixes, n)
	}
	prefixes = append(prefixes, cols)

	states := make([][]float64, cols) // member forecasts, rebuilt from the anomalies
	for j := range states {
		states[j] = linalg.VecAdd(a.Col(nil, j), ens.Central)
	}
	acc := core.NewAccumulator(ens.Central)
	accumulate := 0.0
	next := 0
	var addErr error
	for j, st := range states {
		accumulate += tr.clock("core", "Accumulator.Add", here.forItem(j), func() {
			if err := acc.Add(ens.MemberIndices[j], st); err != nil {
				addErr = err
			}
		})
		if j+1 == prefixes[next] {
			accumulate += tr.clock("core", "Accumulator.Anomalies", here.forItem(j), func() { acc.Anomalies() })
			next++
		}
	}
	if addErr != nil {
		return fmt.Errorf("replaying the accumulator: %w", addErr)
	}
	vals["core.accumulate_s"] = one(accumulate)

	svdTotal, svdFull := 0.0, 0.0
	var prev, cur *core.Subspace
	for _, n := range prefixes {
		prefix := a.Slice(0, rows, 0, n)
		prev = cur
		svdFull = tr.clock("core", "SubspaceFromAnomalies", here.forItem(n), func() {
			cur = core.SubspaceFromAnomalies(prefix, ecfg.MaxRank, ecfg.SigmaRelTol)
		})
		svdTotal += svdFull
	}
	vals["core.subspace_svd_s"] = one(svdTotal)
	vals["core.subspace_svd_full_s"] = one(svdFull)
	if prev == nil {
		prev = l.prior // a single round: test against the prior, as the next round would
	}
	for i := 0; i < 3; i++ {
		d := tr.clock("core", "Criterion.Converged", here, func() { ecfg.Criterion.Converged(prev, cur) })
		vals["core.converged_test_us"] = append(vals["core.converged_test_us"], d*1e6)
	}

	// --- core + obs: perturbation and assimilation ---
	scaler, err := core.NewScaler(l.sys.Layout, core.DefaultVarScales())
	if err != nil {
		return err
	}
	for i := 0; i < 15; i++ {
		st := streams.Split(uint64(i))
		d := tr.clock("core", "Subspace.Perturb", here, func() {
			scaler.FromScaled(nil, l.prior.Perturb(nil, st, l.cfg.WhiteNoise))
		})
		vals["core.perturb_us"] = append(vals["core.perturb_us"], d*1e6)
	}
	scaled, err := obs.NewScaled(l.sys.Network, scaler.Scale)
	if err != nil {
		return err
	}
	truth := l.sys.TruthState()
	var y []float64
	for i := 0; i < 15; i++ {
		st := streams.Split(uint64(100 + i))
		d := tr.clock("obs", "Network.Sample", here, func() { y = l.sys.Network.Sample(truth, st) })
		vals["obs.sample_us"] = append(vals["obs.sample_us"], d*1e6)
		d = tr.clock("obs", "ScaledNetwork.ApplyHMat", here, func() { scaled.ApplyHMat(ens.Subspace.Modes) })
		vals["obs.apply_hmat_us"] = append(vals["obs.apply_hmat_us"], d*1e6)
	}
	vals["obs.count"] = one(float64(l.sys.Network.Len()))
	yz := scaled.ScaleObs(y)
	for i := 0; i < 3; i++ {
		var err error
		d := tr.clock("core", "Assimilate", here, func() { _, err = core.Assimilate(ens.Mean, ens.Subspace, scaled, yz) })
		if err != nil {
			return fmt.Errorf("replaying the assimilation: %w", err)
		}
		vals["core.assimilate_s"] = append(vals["core.assimilate_s"], d)
	}

	// How far the run's own modes are from orthonormal: max |EᵀE − I|.
	gramE := linalg.MulTA(ens.Subspace.Modes, ens.Subspace.Modes)
	defect := 0.0
	for i := 0; i < gramE.Rows; i++ {
		for j := 0; j < gramE.Cols; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			defect = math.Max(defect, math.Abs(gramE.At(i, j)-want))
		}
	}
	vals["core.ortho_defect"] = one(defect)

	// --- linalg: the kernels under the SVD round, at the workload's (M, N) ---
	flops := 2 * float64(rows) * float64(cols) * float64(cols)
	vals["linalg.gram_flops_computed"] = one(flops)
	vals["linalg.gram_bytes_computed"] = one(8 * float64(rows*cols+cols*cols))
	for i := 0; i < 3; i++ {
		var gram *linalg.Dense
		var eig *linalg.EigSym
		d := tr.clock("linalg", "MulTA", here, func() { gram = linalg.MulTA(a, a) })
		vals["linalg.gram_gflops"] = append(vals["linalg.gram_gflops"], flops/d/1e9)
		d = tr.clock("linalg", "SymEig", here, func() { eig = linalg.SymEig(gram) })
		vals["linalg.symeig_s"] = append(vals["linalg.symeig_s"], d)
		d = tr.clock("linalg", "Mul", here, func() { linalg.Mul(a, eig.Vectors) })
		vals["linalg.mul_tall_gflops"] = append(vals["linalg.mul_tall_gflops"], flops/d/1e9)
		d = tr.clock("linalg", "ThinSVDGram", here, func() { linalg.ThinSVDGram(a, cols) })
		vals["linalg.thin_svd_gram_s"] = append(vals["linalg.thin_svd_gram_s"], d)
	}

	// --- ocean: one step, both ways, and one member's forecast ---
	ocfg := ocean.DefaultConfig(grid.MontereyBay(w.sp.nx, w.sp.ny, w.sp.nz))
	const steps = 300
	model := ocean.New(ocfg, streams.Split(200))
	serial, parallel := make(sample, steps), make(sample, steps)
	tr.clock("ocean", "Step x300", here, func() {
		for i := range serial {
			start := time.Now()
			model.Step()
			serial[i] = time.Since(start).Seconds() * 1e6
		}
	})
	tr.clock("ocean", "StepParallel x300", here, func() {
		for i := range parallel {
			start := time.Now()
			model.StepParallel(w.sp.workers)
			parallel[i] = time.Since(start).Seconds() * 1e6
		}
	})
	vals["ocean.step_us"] = one(serial.median())
	vals["ocean.step_parallel_us"] = one(parallel.median())
	vals["ocean.cell_updates_per_s"] = one(float64(ocfg.Grid.N3()) / (serial.median() / 1e6))
	analysis := l.sys.Analysis()
	for i := 0; i < 3; i++ {
		st := streams.Split(uint64(300 + i))
		d := tr.clock("ocean", "member forecast", here, func() {
			m := ocean.New(ocfg, st)
			m.SetState(analysis)
			m.Run(w.shape.steps)
			m.State(nil)
		})
		vals["ocean.member_forecast_s"] = append(vals["ocean.member_forecast_s"], d)
	}

	// --- workflow: the engine with members that cost nothing ---
	if err := w.replayEngine(vals, ecfg, ens.Central, states, tr, here); err != nil {
		return err
	}
	if w.shape.tracked {
		return w.replayStore(vals, a, ens.MemberIndices, prefixes, tr, here)
	}
	return nil
}

// replayEngine runs RunParallel over prebuilt member states with one SVD
// at the end, and charges the engine with what is left of the run once
// the gap that holds that SVD is taken out: dispatch, results channel,
// diff and progress callback, per member.
func (w *cycleWorkload) replayEngine(vals map[string]sample, ecfg workflow.Config, central []float64, states [][]float64, tr *tracer, here at) error {
	n := len(states)
	ecfg.InitialSize, ecfg.MaxSize, ecfg.SVDBatch = n, n, n
	ecfg.Criterion = never
	ecfg.Store = nil
	runner := func(_ context.Context, index int) ([]float64, error) { return states[index], nil }
	for i := 0; i < 3; i++ {
		var last time.Time
		rounds, svdGap := 0, 0.0
		ecfg.OnProgress = func(p workflow.Progress) {
			now := time.Now()
			if p.SVDRounds > rounds {
				svdGap += now.Sub(last).Seconds()
			}
			last, rounds = now, p.SVDRounds
		}
		var res *workflow.Result
		var err error
		tr.clock("workflow", "RunParallel (free members)", here, func() {
			last = time.Now()
			res, err = workflow.RunParallel(context.Background(), ecfg, central, runner)
		})
		if err != nil {
			return fmt.Errorf("replaying the engine: %w", err)
		}
		perMember := (res.Elapsed.Seconds() - svdGap) / float64(n-rounds) * 1e6
		vals["workflow.engine_overhead_us"] = append(vals["workflow.engine_overhead_us"], perMember)
	}
	return nil
}

// replayStore writes and reads back each round's anomaly prefix through
// a covstore of its own, as the diff and SVD stages do in the run.
func (w *cycleWorkload) replayStore(vals map[string]sample, a *linalg.Dense, indices, prefixes []int, tr *tracer, here at) error {
	dir, err := os.MkdirTemp(w.tmp, "replay-cov-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := covstore.Open(dir)
	if err != nil {
		return err
	}
	write, read, bytes := 0.0, 0.0, 0.0
	for _, n := range prefixes {
		prefix := a.Slice(0, a.Rows, 0, n)
		var err error
		write += tr.clock("covstore", "WriteSnapshot", here.forItem(n), func() { _, err = store.WriteSnapshot(prefix, indices[:n]) })
		if err != nil {
			return err
		}
		info, err := os.Stat(filepath.Join(dir, "safe.cov"))
		if err != nil {
			return err
		}
		bytes += float64(info.Size())
		read += tr.clock("covstore", "ReadSafe", here.forItem(n), func() { _, _, _, err = store.ReadSafe() })
		if err != nil {
			return err
		}
	}
	vals["covstore.write_s"] = one(write)
	vals["covstore.read_s"] = one(read)
	vals["covstore.bytes_written"] = one(bytes)
	vals["covstore.write_mb_per_s"] = one(bytes / 1e6 / write)
	vals["covstore.read_mb_per_s"] = one(bytes / 1e6 / read)
	return nil
}
