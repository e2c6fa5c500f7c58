package realtime

import (
	"context"
	"time"

	"esse/internal/core"
	"esse/internal/ocean"
	"esse/internal/workflow"
)

// quietStreamID keys the Split child handed to the noise-free model
// runs below. The quiet configuration never draws from its stream (all
// noise amplitudes are zero), but deriving it from the master seed —
// instead of an ad-hoc rng.New(1) — keeps every stream in the system
// attributable to Config.Seed.
const quietStreamID = 0xD0

// deterministicForecast evolves the current error subspace through the
// quiet (noise-free) model by finite-difference tangent linearization —
// the DO-style alternative to the stochastic ensemble. It returns a
// workflow.Result-shaped summary so the rest of the cycle (assimilation,
// diagnostics) is agnostic to how the uncertainty was forecast.
func (s *System) deterministicForecast(ctx context.Context, centralZ []float64) (*workflow.Result, error) {
	start := time.Now()
	quiet := s.oceanCfg
	quiet.NoiseWind, quiet.NoiseTracer = 0, 0
	steps := s.Cfg.StepsPerCycle
	prop := func(ctx context.Context, initialZ []float64) ([]float64, error) {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// Split is a pure read of the parent, so concurrent prop calls
		// may each derive their own child here.
		m := ocean.NewFromState(quiet, s.seeds.Split(quietStreamID), s.scaler.FromScaled(nil, initialZ))
		m.Run(steps)
		return s.scaler.ToScaled(nil, m.State(nil)), nil
	}
	analysisZ := s.scaler.ToScaled(nil, s.analysis)
	mean, sub, err := core.PropagateSubspace(ctx, prop, analysisZ, s.subspace, 1.0, s.Cfg.Ensemble.Workers)
	if err != nil {
		return nil, err
	}
	return &workflow.Result{
		Subspace:    sub,
		Mean:        mean,
		Central:     centralZ,
		Converged:   true, // the propagation is exact for its own model
		Rho:         1,
		MembersUsed: s.subspace.Rank() + 1, // p mode runs + the central
		Elapsed:     time.Since(start),
	}, nil
}
