// Package realtime wires every substrate into the full real-time
// forecasting system of the paper: the stochastic ocean model, the
// AOSN-II-style observation network, the ESSE error subspace, the MTC
// ensemble workflow and the assimilation update, cycled over successive
// observation batches exactly as in the Fig. 1 timelines.
//
// The package implements a twin experiment (the standard substitute for
// the 2003 Monterey Bay campaign data): a "truth" ocean run generates
// synthetic observations; an independently initialized analysis is
// cycled through forecast → ensemble uncertainty prediction →
// assimilation. Forecast skill (RMSE against truth) and uncertainty maps
// (Figs. 5 and 6) come out of the same objects the real system would
// produce.
package realtime

import (
	"context"
	"fmt"
	"math"
	"time"

	"esse/internal/core"
	"esse/internal/grid"
	"esse/internal/linalg"
	"esse/internal/obs"
	"esse/internal/ocean"
	"esse/internal/rng"
	"esse/internal/telemetry"
	"esse/internal/workflow"
)

// Constants of the twin experiment that no run varies.
const (
	// SubspaceInflation scales the climatological snapshot spread up to
	// realistic initial-condition error levels (snapshot spread from a
	// short free run underestimates true forecast error).
	SubspaceInflation = 4
	// TruthPerturbation scales the initial-condition error injected into
	// the truth relative to the first guess, drawn from the error
	// subspace (so the twin experiment's true error statistics match the
	// prior ESSE assumes, as in the paper's error nowcast initialization).
	TruthPerturbation = 1
	// AdaptiveCastStd is the temperature error (degC) of adaptive casts.
	AdaptiveCastStd = 0.05
)

// Config parameterizes a twin experiment.
type Config struct {
	// NX, NY, NZ size the Monterey-Bay-like grid.
	NX, NY, NZ int
	// Cycles is the number of observation batches (T₀..T_k).
	Cycles int
	// StepsPerCycle is the number of model steps between batches.
	StepsPerCycle int
	// SnapshotCount and SnapshotStride build the initial error subspace
	// from a climatological run.
	SnapshotCount, SnapshotStride int
	// InitialRank truncates the initial subspace.
	InitialRank int
	// WhiteNoise is the truncation-error white noise added to each
	// perturbation (amplitude, model units).
	WhiteNoise float64
	// Ensemble configures the MTC workflow per cycle.
	Ensemble workflow.Config
	// AdaptiveCasts, when positive, adds this many adaptively placed
	// full-depth virtual CTD casts per cycle, chosen by the greedy
	// expected-variance-reduction planner from the forecast subspace
	// (the Section 7 adaptive-sampling extension).
	AdaptiveCasts int
	// Deterministic switches the per-cycle uncertainty forecast from the
	// stochastic MTC ensemble to the deterministic DO-style subspace
	// propagation (core.PropagateSubspace): p+1 quiet model runs instead
	// of an N-member ensemble. Model-noise growth is neglected — the
	// known limitation of the deterministic approach. Incompatible with
	// Smooth (no member anomalies exist).
	Deterministic bool
	// Smooth, when true, reanalyzes each cycle's starting state with
	// that cycle's observations through the ensemble cross-covariance
	// (the ESSE smoother, ref [16]); the result lands in
	// CycleResult.SmoothedStart.
	Smooth bool
	// WrapRunner, when non-nil, wraps each cycle's member runner — the
	// hook for the jobdir resume layer, instrumentation, or fault
	// injection. It receives the cycle number and the raw runner.
	WrapRunner func(cycle int, r workflow.MemberRunner) workflow.MemberRunner
	// Telemetry, when non-nil, instruments the cycle driver with
	// wall-clock phase spans, per-cycle lifecycle events and skill
	// gauges; NewSystem propagates it to Ensemble.Telemetry unless the
	// ensemble already carries its own bundle.
	Telemetry *telemetry.Telemetry
	// Seed drives all randomness (truth, noise, perturbations).
	Seed uint64
	// Serial runs the per-cycle ensemble through workflow.RunSerial, the
	// Fig. 3 reference (used by the serial-vs-parallel comparisons).
	Serial bool
}

// DefaultConfig returns a laptop-scale AOSN-II-like setup.
func DefaultConfig() Config {
	wf := workflow.DefaultConfig()
	wf.InitialSize = 16
	wf.MaxSize = 48
	wf.SVDBatch = 8
	wf.Workers = 8
	wf.Criterion = core.ConvergenceCriterion{MinSimilarity: 0.90, MaxVarianceChange: 0.25}
	return Config{
		NX: 14, NY: 14, NZ: 4,
		Cycles:         3,
		StepsPerCycle:  25,
		SnapshotCount:  12,
		SnapshotStride: 8,
		InitialRank:    10,
		WhiteNoise:     0.002,
		Ensemble:       wf,
		Seed:           1,
	}
}

// CycleResult is the outcome of one forecast/assimilation cycle.
type CycleResult struct {
	Cycle int
	// RMSEForecastT / RMSEAnalysisT measure temperature skill against
	// truth before and after assimilation.
	RMSEForecastT, RMSEAnalysisT float64
	// Ensemble carries the workflow diagnostics.
	Ensemble *workflow.Result
	// InnovationNorm / ResidualNorm are the assimilation diagnostics.
	InnovationNorm, ResidualNorm float64
	// Observations is the batch size.
	Observations int
	// AdaptiveCasts lists the (i, j) locations of adaptively planned
	// casts used this cycle (empty when adaptive sampling is off).
	AdaptiveCasts [][2]int
	// SmoothedStart is the reanalyzed cycle-start state (physical
	// units), present only when Config.Smooth is set.
	SmoothedStart []float64
	// RMSEStartT / RMSESmoothedStartT compare the cycle-start analysis
	// and its smoothed reanalysis against the truth at cycle start
	// (temperature RMSE; only with Config.Smooth).
	RMSEStartT, RMSESmoothedStartT float64
	// OceanStart and OceanEnd bound the stretch of ocean time, in
	// seconds, that the cycle observes and its members simulate (the T
	// and sim rows of Fig. 1); Forecaster is the wall time the
	// forecasting procedure took (the τ row).
	OceanStart, OceanEnd float64
	Forecaster           time.Duration
}

// System is a running twin experiment.
type System struct {
	Cfg     Config
	Layout  *grid.StateLayout
	Network *obs.Network

	truth    *ocean.Model
	analysis []float64      // physical units
	subspace *core.Subspace // scaled (non-dimensional) space
	scaler   *core.Scaler
	scaled   *obs.Points

	oceanCfg ocean.Config
	seeds    *rng.Stream
	cycleNum int
	// clock is the simulated "ocean time" in seconds.
	clock float64
}

// NewSystem builds a twin experiment: truth model, observation network,
// and the initial error subspace estimated from climatological snapshots.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Cycles < 1 || cfg.StepsPerCycle < 1 {
		return nil, fmt.Errorf("realtime: need at least one cycle and one step")
	}
	if cfg.SnapshotCount < 2 {
		return nil, fmt.Errorf("realtime: need at least 2 snapshots for the initial subspace")
	}
	if cfg.Deterministic && cfg.Smooth {
		return nil, fmt.Errorf("realtime: Smooth requires ensemble anomalies; incompatible with Deterministic")
	}
	if cfg.Telemetry != nil && cfg.Ensemble.Telemetry == nil {
		cfg.Ensemble.Telemetry = cfg.Telemetry
	}
	g := grid.MontereyBay(cfg.NX, cfg.NY, cfg.NZ)
	oceanCfg := ocean.DefaultConfig(g)
	seeds := rng.New(cfg.Seed)

	truth := ocean.New(oceanCfg, seeds.Split(1))
	if err := truth.Validate(); err != nil {
		return nil, fmt.Errorf("realtime: ocean model: %w", err)
	}
	layout := truth.Layout

	network, err := obs.AOSN2Network(layout)
	if err != nil {
		return nil, fmt.Errorf("realtime: building network: %w", err)
	}
	scaler, err := core.NewScaler(layout, core.DefaultVarScales())
	if err != nil {
		return nil, fmt.Errorf("realtime: scaler: %w", err)
	}
	scaled, err := obs.NewScaled(network, scaler.Scale)
	if err != nil {
		return nil, fmt.Errorf("realtime: scaled network: %w", err)
	}

	// Initial subspace from climatological uncertainty: realizations of
	// the mesoscale state with jittered eddy/front parameters, advanced a
	// few steps each (seed stream differs from truth: we never peek at
	// the truth trajectory). Snapshots are non-dimensionalized before the
	// SVD, as the paper prescribes, so every variable can contribute to
	// the error subspace; the resulting modes concentrate along the eddy
	// rim and the upwelling front — the structures the paper's Figs. 5
	// and 6 map.
	snapSeeds := seeds.Split(2)
	snaps := linalg.NewDense(layout.Dim(), cfg.SnapshotCount)
	buf := make([]float64, layout.Dim())
	zbuf := make([]float64, layout.Dim())
	for j := 0; j < cfg.SnapshotCount; j++ {
		st := snapSeeds.Split(uint64(j))
		jcfg := oceanCfg
		jcfg.Climo = oceanCfg.Climo.Jitter(st)
		climo := ocean.New(jcfg, st.Split(1))
		climo.Run(cfg.SnapshotStride)
		climo.State(buf)
		scaler.ToScaled(zbuf, buf)
		snaps.SetCol(j, zbuf)
	}
	sub, _ := core.SubspaceFromSnapshots(snaps, cfg.InitialRank)
	for i := range sub.Sigma {
		sub.Sigma[i] *= SubspaceInflation
	}

	// Initial analysis: an independent model spin-up (a biased first
	// guess, as in real operations).
	first := ocean.New(oceanCfg, seeds.Split(3))
	first.Run(cfg.StepsPerCycle / 2)
	analysis := first.State(nil)

	// Inject a realistic initial-condition error into the truth, drawn
	// from the same error subspace the filter assumes: the twin-
	// experiment analog of the paper's posterior error nowcast.
	truthErrZ := sub.Perturb(nil, seeds.Split(4), cfg.WhiteNoise)
	truthErr := scaler.FromScaled(nil, truthErrZ)
	tState := truth.State(nil)
	for i := range tState {
		tState[i] = analysis[i] + TruthPerturbation*truthErr[i]
	}
	truth.SetState(tState)
	// Let the truth decorrelate from the first guess before cycling.
	truth.Run(cfg.StepsPerCycle / 2)

	return &System{
		Cfg:      cfg,
		Layout:   layout,
		Network:  network,
		truth:    truth,
		analysis: analysis,
		subspace: sub,
		scaler:   scaler,
		scaled:   scaled,
		oceanCfg: oceanCfg,
		seeds:    seeds,
	}, nil
}

// Subspace returns the current error subspace.
func (s *System) Subspace() *core.Subspace { return s.subspace }

// Analysis returns the current analysis state (not a copy).
func (s *System) Analysis() []float64 { return s.analysis }

// TruthState returns a copy of the current truth state.
func (s *System) TruthState() []float64 { return s.truth.State(nil) }

// runMember integrates one forecast from the given initial state with an
// independent noise stream.
func (s *System) runMember(initial []float64, noise *rng.Stream) []float64 {
	m := ocean.NewFromState(s.oceanCfg, noise, initial)
	m.Run(s.Cfg.StepsPerCycle)
	return m.State(nil)
}

// RunCycle executes one forecast + assimilation cycle: truth advances
// one observation period, the ESSE ensemble predicts the forecast
// uncertainty, observations of the truth are assimilated, and skill
// metrics are recorded.
func (s *System) RunCycle(ctx context.Context) (*CycleResult, error) {
	k := s.cycleNum
	s.cycleNum++
	cycleSeed := s.seeds.Split(uint64(1000 + k))

	tel := s.Cfg.Telemetry
	tel.Emit("cycle", k, 0, telemetry.PhaseRunning)
	// The cycle span is the root of this cycle's causal tree; every
	// phase below (and, through the engine's context, every member and
	// its perturb/forecast phases) parents back to it.
	ctx, cycleSpan := tel.SpanCtx(ctx, "realtime", "cycle", int64(k), 0)
	defer cycleSpan.End()

	var truthAtStart []float64
	if s.Cfg.Smooth {
		truthAtStart = s.truth.State(nil)
	}
	startAnalysis := append([]float64(nil), s.analysis...)

	// --- observation time: the ocean evolves (Fig. 1 top row) ---
	obsStart := s.clock
	s.truth.Run(s.Cfg.StepsPerCycle)
	s.clock += float64(s.Cfg.StepsPerCycle) * s.oceanCfg.Dt

	// --- forecaster time: the whole procedure below (middle row) ---
	forecasterStart := time.Now()

	// Central (unperturbed) forecast, in scaled space for the engine.
	_, spCentral := tel.SpanCtx(ctx, "realtime", "central-forecast", int64(k), -1)
	central := s.runMember(s.analysis, cycleSeed.Split(0))
	centralZ := s.scaler.ToScaled(nil, central)
	spCentral.End()

	// MTC ensemble: member i perturbs the analysis with the current
	// (scaled-space) subspace and integrates with its own stochastic
	// forcing; the engine sees non-dimensionalized forecast states so
	// the SVD weighs all variables fairly.
	sub := s.subspace
	analysis := s.analysis
	var cache *pertCache
	if s.Cfg.Smooth {
		cache = newPertCache()
	}
	runner := func(ctx context.Context, index int) ([]float64, error) {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// The engine delivers its member span through ctx; the perturb
		// and forecast phase spans parent under it and inherit its lane
		// (lane -1), so each worker row nests member → phases.
		_, spPert := tel.SpanCtx(ctx, "realtime", "perturb", int64(index), -1)
		st := cycleSeed.Split(uint64(index + 1))
		pertZ := sub.Perturb(nil, st, s.Cfg.WhiteNoise)
		if cache != nil {
			cache.put(index, pertZ)
		}
		pert := s.scaler.FromScaled(nil, pertZ)
		initial := make([]float64, len(analysis))
		for i := range initial {
			initial[i] = analysis[i] + pert[i]
		}
		spPert.End()
		_, spForecast := tel.SpanCtx(ctx, "realtime", "forecast", int64(index), -1)
		state := s.runMember(initial, st.Split(7))
		state = s.scaler.ToScaled(state, state)
		spForecast.End()
		return state, nil
	}

	if s.Cfg.WrapRunner != nil {
		runner = s.Cfg.WrapRunner(k, runner)
	}

	var ens *workflow.Result
	var err error
	ectx, spEnsemble := tel.SpanCtx(ctx, "realtime", "ensemble", int64(k), -1)
	switch {
	case s.Cfg.Deterministic:
		ens, err = s.deterministicForecast(ectx, centralZ)
	case s.Cfg.Serial:
		ens, err = workflow.RunSerial(ectx, s.Cfg.Ensemble, centralZ, runner)
	default:
		ens, err = workflow.RunParallel(ectx, s.Cfg.Ensemble, centralZ, runner)
	}
	spEnsemble.End()
	if err != nil {
		tel.Emit("cycle", k, 0, telemetry.PhaseFailed)
		return nil, fmt.Errorf("realtime: cycle %d ensemble: %w", k, err)
	}

	// Optionally target the largest predicted uncertainties with
	// adaptive casts before observing (Section 7 adaptive sampling).
	network, scaled := s.Network, s.scaled
	var castLocs [][2]int
	if s.Cfg.AdaptiveCasts > 0 {
		_, spAdaptive := tel.SpanCtx(ctx, "realtime", "adaptive-sampling", int64(k), -1)
		castLocs, err = s.PlanAdaptiveCasts(ens.Subspace, s.Cfg.AdaptiveCasts, AdaptiveCastStd)
		if err != nil {
			spAdaptive.End()
			tel.Emit("cycle", k, 0, telemetry.PhaseFailed)
			return nil, fmt.Errorf("realtime: cycle %d adaptive planning: %w", k, err)
		}
		network, scaled, err = s.AugmentedNetwork(castLocs, AdaptiveCastStd)
		if err != nil {
			spAdaptive.End()
			tel.Emit("cycle", k, 0, telemetry.PhaseFailed)
			return nil, fmt.Errorf("realtime: cycle %d adaptive network: %w", k, err)
		}
		spAdaptive.End()
	}

	// Observe the truth and assimilate in scaled space.
	_, spAssim := tel.SpanCtx(ctx, "realtime", "assimilate", int64(k), -1)
	y := network.Sample(s.truth.State(nil), cycleSeed.Split(999))
	yz := scaled.ScaleObs(y)
	an, err := core.Assimilate(ens.Mean, ens.Subspace, scaled, yz)
	spAssim.End()
	if err != nil {
		tel.Emit("cycle", k, 0, telemetry.PhaseFailed)
		return nil, fmt.Errorf("realtime: cycle %d assimilation: %w", k, err)
	}

	truthState := s.truth.State(nil)
	forecastMean := s.scaler.FromScaled(nil, ens.Mean)
	analysisMean := s.scaler.FromScaled(nil, an.Mean)
	res := &CycleResult{
		Cycle:          k,
		RMSEForecastT:  s.rmseT(forecastMean, truthState),
		RMSEAnalysisT:  s.rmseT(analysisMean, truthState),
		Ensemble:       ens,
		InnovationNorm: an.InnovationNorm,
		ResidualNorm:   an.ResidualNorm,
		Observations:   network.Len(),
		AdaptiveCasts:  castLocs,
		OceanStart:     obsStart,
		OceanEnd:       s.clock,
	}

	if s.Cfg.Smooth {
		// Reanalyze the cycle-start state with this cycle's innovation:
		// the observations the filter assimilated, restricted to the base
		// network (the smoother's H), which AugmentedNetwork puts first.
		_, spSmooth := tel.SpanCtx(ctx, "realtime", "smooth", int64(k), -1)
		innovZ := linalg.VecSub(yz[:s.Network.Len()], s.scaled.ApplyH(ens.Mean))
		smoothed, err := s.smoothStart(startAnalysis, cache, ens.Anomalies, ens.MemberIndices, innovZ)
		spSmooth.End()
		if err != nil {
			tel.Emit("cycle", k, 0, telemetry.PhaseFailed)
			return nil, fmt.Errorf("realtime: cycle %d smoothing: %w", k, err)
		}
		res.SmoothedStart = smoothed
		res.RMSEStartT = s.rmseT(startAnalysis, truthAtStart)
		res.RMSESmoothedStartT = s.rmseT(smoothed, truthAtStart)
	}

	s.analysis = analysisMean
	s.subspace = an.Posterior

	res.Forecaster = time.Since(forecasterStart)

	tel.Counter("esse_realtime_cycles_total", "Completed forecast/assimilation cycles.").Inc()
	tel.Emit("cycle", k, 0, telemetry.PhaseDone)
	return res, nil
}

// rmseT computes temperature-field RMSE between two packed states.
func (s *System) rmseT(a, b []float64) float64 {
	ta := s.Layout.SliceByName(a, "T")
	tb := s.Layout.SliceByName(b, "T")
	sum := 0.0
	for i := range ta {
		d := ta[i] - tb[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(ta)))
}

// Run executes all configured cycles.
func (s *System) Run(ctx context.Context) ([]*CycleResult, error) {
	var out []*CycleResult
	for k := 0; k < s.Cfg.Cycles; k++ {
		r, err := s.RunCycle(ctx)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// UncertaintyField returns the forecast standard deviation of variable
// name at vertical level k as an NX×NY field — the quantity mapped in
// the paper's Fig. 5 (SST, k=0) and Fig. 6 (30 m temperature).
func (s *System) UncertaintyField(name string, level int) ([]float64, error) {
	vi := s.Layout.VarIndex(name)
	if vi < 0 {
		return nil, fmt.Errorf("realtime: unknown variable %q", name)
	}
	if level < 0 || level >= s.Layout.Vars[vi].Levels {
		return nil, fmt.Errorf("realtime: level %d out of range", level)
	}
	// Variance is computed in scaled space; convert back to physical
	// units with the per-element scales.
	variance := s.subspace.VariancePointwise()
	for i := range variance {
		sc := s.scaler.At(i)
		variance[i] *= sc * sc
	}
	slab := s.Layout.Level(variance, vi, level)
	out := make([]float64, len(slab))
	for i, v := range slab {
		if v < 0 {
			v = 0
		}
		out[i] = math.Sqrt(v)
	}
	return out, nil
}

// LevelNearestDepth maps a depth in meters to the grid level index.
func (s *System) LevelNearestDepth(depth float64) int {
	return s.Layout.G.NearestLevel(depth)
}
