package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"time"

	"esse/internal/core"
	"esse/internal/covstore"
	"esse/internal/jobdir"
	"esse/internal/realtime"
	"esse/internal/workflow"
)

// cycleStat is what a repetition keeps of one forecast cycle once the
// cycle's matrices have been checked and dropped.
type cycleStat struct {
	wall, ensemble                           float64 // seconds
	used, failed, cancelled, rounds, growths int
	rho, rmseForecast, rmseAnalysis          float64
	rank                                     int
	sigma                                    []float64
	indices                                  []int
}

type repStat struct {
	rep    int
	setup  float64
	cycles []cycleStat
	mem    memDelta // traced repetitions only
}

func (r repStat) wall() float64 { return r.sum(func(c cycleStat) float64 { return c.wall }) }

func (r repStat) sum(f func(cycleStat) float64) float64 {
	t := 0.0
	for _, c := range r.cycles {
		t += f(c)
	}
	return t
}

// lastRep keeps the live objects of the latest traced repetition: the
// inputs the layer replays run on.
type lastRep struct {
	sys   *realtime.System
	cfg   realtime.Config
	cycle *realtime.CycleResult // the last cycle
	prior *core.Subspace        // the subspace that cycle's members were perturbed with
	sub0  *core.Subspace        // cycle 0's ensemble subspace
}

// cycleWorkload runs forecast-bound, svd-bound, paper-cycle or
// paper-resume: K cycles of the real-time system per repetition.
type cycleWorkload struct {
	name  string
	sp    spec
	shape cycleShape
	opt   options
	tl    *tally
	tmp   string // scratch directory of the tracked workloads

	ref []cycleStat // first repetition: on a fixed shape every other one must equal it

	// paper-resume: the cold pass the repetitions resume from.
	coldDir  string
	cold     []cycleStat
	coldSub0 *core.Subspace
}

// paperOcean is the realtime seed of the two paper workloads, whatever
// --seed is. How many members an ocean needs before its subspace
// converges is a property of that ocean: over seeds 1-10 the paper shape
// uses 53 to 69 members a cycle and its cycle wall spreads by 31 %
// (quartile distance ÷ median). The workload seed must not move a timing,
// so these two workloads always forecast the same ocean.
const paperOcean = 1

type ctxKey struct{}

// probe is the traced run's instrumentation of one repetition: a clock
// round every runner call and the gaps between progress callbacks.
type probe struct {
	tr        *tracer
	where     at // rep, current cycle and the open RunCycle span
	lastCB    time.Time
	lastRound int
}

// wrap clocks every call of r as a span. A span opened by an outer
// wrapper travels in ctx and becomes the parent.
func (p *probe) wrap(r workflow.MemberRunner, layer, name string) workflow.MemberRunner {
	if p == nil {
		return r
	}
	where := p.where // the cycle's; WrapRunner runs once per cycle, before any member
	return func(ctx context.Context, index int) ([]float64, error) {
		a := where.forItem(index)
		if parent, ok := ctx.Value(ctxKey{}).(int); ok {
			a.parent = parent
		}
		id := p.tr.begin(layer, name, a)
		defer p.tr.end(id)
		return r(context.WithValue(ctx, ctxKey{}, id), index)
	}
}

// progress records, as a span, each gap between two callbacks across
// which the SVD-round count rose: the coordinator's wait for the member
// that closed the batch, its diff, and the SVD round itself.
func (p *probe) progress(pr workflow.Progress) {
	now := time.Now()
	if pr.SVDRounds > p.lastRound {
		p.tr.add("workflow", "svd-round-gap", p.where, p.lastCB, now)
	}
	p.lastCB, p.lastRound = now, pr.SVDRounds
}

func (w *cycleWorkload) config(dir string, serial bool, p *probe) (realtime.Config, error) {
	sh := w.shape
	cfg := realtime.DefaultConfig()
	cfg.NX, cfg.NY, cfg.NZ = w.sp.nx, w.sp.ny, w.sp.nz
	cfg.Cycles, cfg.StepsPerCycle = sh.cycles, sh.steps
	if sh.snapshots > 0 {
		cfg.SnapshotCount, cfg.InitialRank = sh.snapshots, sh.rank
	}
	cfg.Seed = w.opt.seed
	if !sh.fixed() {
		cfg.Seed = paperOcean
	}
	cfg.Serial = serial
	cfg.Ensemble.InitialSize, cfg.Ensemble.MaxSize, cfg.Ensemble.SVDBatch = sh.initial, sh.max, sh.batch
	cfg.Ensemble.Criterion = sh.criterion
	cfg.Ensemble.Workers = w.sp.workers
	if p != nil {
		cfg.Ensemble.OnProgress = p.progress
	}
	if sh.tracked {
		store, err := covstore.Open(filepath.Join(dir, "cov"))
		if err != nil {
			return cfg, err
		}
		cfg.Ensemble.Store = store
	}
	if !sh.tracked && p == nil && w.sp.wrapInner == nil {
		return cfg, nil // the timed run of an untracked workload carries no wrapper at all
	}
	cfg.WrapRunner = func(cycle int, r workflow.MemberRunner) workflow.MemberRunner {
		if w.sp.wrapInner != nil {
			r = w.sp.wrapInner(r)
		}
		r = p.wrap(r, "workflow", "member")
		if !sh.tracked {
			return r
		}
		tk, err := jobdir.Open(filepath.Join(dir, "track", fmt.Sprintf("cycle-%d", cycle)))
		if err != nil {
			return func(context.Context, int) ([]float64, error) { return nil, err }
		}
		return p.wrap(jobdir.ResumableRunner(tk, r), "jobdir", "resumable")
	}
	return cfg, nil
}

// runRep builds a fresh system and runs its K cycles. Everything up to
// the first RunCycle is set-up; only RunCycle is timed as work.
func (w *cycleWorkload) runRep(rep int, tr *tracer, serial bool, dir string) (repStat, *lastRep, error) {
	ctx := context.Background()
	st := repStat{rep: rep}
	repSpan := tr.begin("bench", "rep", root(rep))
	defer tr.end(repSpan)
	here := root(rep).under(repSpan)
	var p *probe
	if tr != nil {
		p = &probe{tr: tr, where: here}
	}

	var sys *realtime.System
	var cfg realtime.Config
	var err error
	st.setup = tr.clock("realtime", "NewSystem", here, func() {
		if cfg, err = w.config(dir, serial, p); err == nil {
			sys, err = realtime.NewSystem(cfg)
		}
	})
	if err != nil {
		return st, nil, fmt.Errorf("set-up: %w", err)
	}

	results := make([]*realtime.CycleResult, 0, w.shape.cycles)
	walls := make([]float64, 0, w.shape.cycles)
	var prior *core.Subspace
	before := readMem(tr != nil)
	for k := 0; k < w.shape.cycles; k++ {
		prior = sys.Subspace()
		id := tr.begin("realtime", "RunCycle", here.inCycle(k))
		if p != nil {
			p.where = here.inCycle(k).under(id)
			p.lastCB, p.lastRound = time.Now(), 0
		}
		start := time.Now()
		cr, err := sys.RunCycle(ctx)
		walls = append(walls, time.Since(start).Seconds())
		tr.end(id)
		w.tl.ops(1, 0)
		if err != nil {
			return st, nil, fmt.Errorf("cycle %d: %w", k, err) // the caller counts it as failed
		}
		results = append(results, cr)
	}
	st.mem = before.until(readMem(tr != nil))

	// Checks come after the timed cycles: Subspace.Check alone is a
	// state-dim × rank² product.
	for k, cr := range results {
		e := cr.Ensemble
		w.tl.ops(e.MembersUsed+e.MembersFailed+e.MembersCancelled, e.MembersFailed)
		st.cycles = append(st.cycles, cycleStat{
			wall: walls[k], ensemble: e.Elapsed.Seconds(),
			used: e.MembersUsed, failed: e.MembersFailed, cancelled: e.MembersCancelled,
			rounds: e.SVDRounds, growths: len(e.PoolSizes) - 1,
			rho: e.Rho, rmseForecast: cr.RMSEForecastT, rmseAnalysis: cr.RMSEAnalysisT,
			rank: e.Subspace.Rank(), sigma: e.Subspace.Sigma, indices: e.MemberIndices,
		})
		w.checkCycle(rep, k, cr)
	}
	if w.shape.fixed() {
		if w.ref == nil {
			w.ref = st.cycles
		}
		for k := range st.cycles {
			w.tl.check(sameSigma(w.ref[k].sigma, st.cycles[k].sigma),
				"rep %d cycle %d: sigma differs from the first repetition's", rep, k)
		}
	}
	return st, &lastRep{sys: sys, cfg: cfg, cycle: results[len(results)-1], prior: prior, sub0: results[0].Ensemble.Subspace}, nil
}

func (w *cycleWorkload) checkCycle(rep, k int, cr *realtime.CycleResult) {
	err := cr.Ensemble.Subspace.Check(orthoTol)
	w.tl.check(err == nil, "rep %d cycle %d: subspace: %v", rep, k, err)
	w.tl.check(finite(cr.RMSEForecastT) && finite(cr.RMSEAnalysisT),
		"rep %d cycle %d: RMSE not finite (%v, %v)", rep, k, cr.RMSEForecastT, cr.RMSEAnalysisT)
	// No check holds the analysis RMSE against the forecast RMSE: on some
	// oceans a later cycle's assimilation makes a good forecast slightly
	// worse (README.md), and whether the filter may do that is not for the
	// benchmark to decide. core.skill_ratio reports the ratio.
	w.tl.check(cr.ResidualNorm <= cr.InnovationNorm,
		"rep %d cycle %d: residual norm %.4g above innovation norm %.4g", rep, k, cr.ResidualNorm, cr.InnovationNorm)
	if k == 0 && w.coldSub0 != nil {
		rho := core.SimilarityCoefficient(w.coldSub0, cr.Ensemble.Subspace)
		w.tl.check(rho >= 0.99, "rep %d: resumed cycle-0 subspace has rho %.4f against the cold pass, want >= 0.99", rep, rho)
	}
}

// orthoTol is the tolerance of Subspace.Check. At rank 96 on 15 360 rows
// the Gram thin SVD leaves max|EᵀE − I| between 1.4e-9 and 1.4e-8 (five
// seeds measured; core.ortho_defect reports it), so the 1e-8 issue 11
// asked for sits inside the spread of correct runs.
const orthoTol = 1e-6

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// sameSigma compares two spectra to 1e-9 relative.
func sameSigma(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !(math.Abs(a[i]-b[i]) <= 1e-9*math.Max(math.Abs(a[i]), math.Abs(b[i]))) {
			return false
		}
	}
	return true
}

// repDir prepares the scratch directory of one repetition of a tracked
// workload. A paper-resume repetition gets its own copy of the cold
// pass's member tracking, so every repetition resumes the same crash.
func (w *cycleWorkload) repDir() (string, error) {
	if !w.shape.tracked {
		return "", nil
	}
	dir, err := os.MkdirTemp(w.tmp, "rep-")
	if err != nil {
		return "", err
	}
	if w.name == wResume {
		err = copyTree(filepath.Join(dir, "track"), filepath.Join(w.coldDir, "track"))
	}
	return dir, err
}

// copyTree copies the directory src, which holds only directories and
// regular files, to dst.
func copyTree(dst, src string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

func runCycleWorkload(name string, sp spec, opt options, tr *tracer, tl *tally) (measured, error) {
	w := &cycleWorkload{name: name, sp: sp, shape: sp.shape(name), opt: opt, tl: tl}
	m := measured{cycles: w.shape.cycles, values: make(map[string]sample)}
	if w.shape.tracked {
		tmp, err := os.MkdirTemp(opt.outDir, "tmp-"+name+"-")
		if err != nil {
			return m, err
		}
		defer os.RemoveAll(tmp)
		w.tmp = tmp
	}
	if name == wResume {
		// The crashed run: a cold pass that is input, not measurement.
		w.coldDir = filepath.Join(w.tmp, "cold")
		st, last, err := w.runRep(-1, nil, false, w.coldDir)
		if err != nil {
			return m, fmt.Errorf("cold pass: %w", err)
		}
		w.cold, w.coldSub0 = st.cycles, last.sub0
	}

	var timed, traced []repStat
	var last *lastRep
	var runErr error
	opt.repeat(sp.minReps, tr, func(rep int, t *tracer) bool {
		dir, err := w.repDir()
		if err != nil {
			runErr = err
			return false
		}
		st, l, err := w.runRep(rep, t, false, dir)
		if dir != "" {
			if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
				err = rmErr
			}
		}
		if err != nil {
			runErr = fmt.Errorf("rep %d: %w", rep, err)
			return false
		}
		if t != nil {
			traced, last = append(traced, st), l
		} else {
			timed = append(timed, st)
		}
		return true
	})
	if runErr != nil {
		return m, runErr
	}

	m.reps = len(timed)
	for _, st := range timed {
		k := float64(len(st.cycles))
		m.values["setup_s"] = append(m.values["setup_s"], st.setup)
		m.values["unit_wall_s"] = append(m.values["unit_wall_s"], st.wall()/k)
		m.values["items_per_s"] = append(m.values["items_per_s"],
			st.sum(func(c cycleStat) float64 { return float64(c.used) })/st.wall())
	}
	if !opt.trace {
		return m, nil
	}
	return m, w.layers(m.values, timed, traced, last, tr)
}
