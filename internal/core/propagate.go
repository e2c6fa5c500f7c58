package core

import (
	"cmp"
	"context"
	"fmt"

	"esse/internal/linalg"
	"esse/internal/taskpool"
)

// Propagator integrates the (nonlinear) model from an initial state over
// one forecast interval and returns the final state. Implementations
// must be safe for concurrent use.
type Propagator func(ctx context.Context, initial []float64) ([]float64, error)

// modeRun is the propagated final state of one mode, or why there is
// none; a degenerate mode has neither.
type modeRun struct {
	final []float64
	err   error
}

// PropagateSubspace evolves the mean and the error subspace
// deterministically through the model using finite-difference
// tangent linearization:
//
//	x_f      = M(x)
//	δx_f,j   = [M(x + ε σ_j e_j) − M(x)] / ε
//
// followed by an SVD re-orthonormalization of the propagated factor
// [δx_f,1 … δx_f,p]. This is the deterministic, dominant-mode evolution
// the paper's future work points to (the dynamically-orthogonal field
// equations of Sapsis & Lermusiaux 2009): it costs p+1 model runs
// instead of an N-member ensemble, at the price of ignoring the
// model-noise contribution that the stochastic ensemble captures.
//
// eps controls the linearization step as a fraction of each mode's σ;
// values around 1 probe the finite-amplitude dynamics (like ESSE
// perturbations), small values approach the tangent-linear limit.
//
// A failed mode fails the call, unlike a failed ensemble member: the p
// modes are the directions of the subspace, not interchangeable samples,
// so dropping one would silently change which subspace is propagated.
// Modes are committed in index order and the first error ends the run,
// so the error returned names the lowest failed mode whatever the
// worker count.
func PropagateSubspace(ctx context.Context, prop Propagator, mean []float64, sub *Subspace, eps float64, workers int) ([]float64, *Subspace, error) {
	if eps <= 0 {
		return nil, nil, fmt.Errorf("core: non-positive linearization step %v", eps)
	}
	p := sub.Rank()
	dim := sub.StateDim()
	if len(mean) != dim {
		return nil, nil, fmt.Errorf("core: mean dim %d != subspace dim %d", len(mean), dim)
	}
	central, err := prop(ctx, mean)
	if err != nil {
		return nil, nil, fmt.Errorf("core: central propagation: %w", err)
	}
	if len(central) != dim {
		return nil, nil, fmt.Errorf("core: propagator changed state dim %d -> %d", dim, len(central))
	}

	// The p modes run on the shared task pool, and Commit writes column j
	// of the factor on this goroutine.
	factor := linalg.NewDense(dim, p)
	pool := &taskpool.Pool[modeRun]{
		Workers: workers,
		Task: func(ctx context.Context, _ int64, j int) modeRun {
			if err := ctx.Err(); err != nil {
				return modeRun{err: err}
			}
			amp := eps * sub.Sigma[j]
			if amp == 0 {
				return modeRun{} // degenerate mode: propagated column stays zero
			}
			perturbed := make([]float64, dim)
			for i := 0; i < dim; i++ {
				perturbed[i] = mean[i] + amp*sub.Modes.At(i, j)
			}
			final, err := prop(ctx, perturbed)
			if err != nil {
				return modeRun{err: fmt.Errorf("core: mode %d propagation: %w", j, err)}
			}
			return modeRun{final: final}
		},
		Commit: func(j int, m modeRun) error {
			if m.err != nil || m.final == nil {
				return m.err
			}
			inv := 1 / eps
			for i := 0; i < dim; i++ {
				factor.Set(i, j, (m.final[i]-central[i])*inv)
			}
			return nil
		},
	}
	// n < p: ctx was cancelled before every mode started.
	if n, err := pool.Run(ctx, p); err != nil || n < p {
		return nil, nil, cmp.Or(err, ctx.Err())
	}

	// Re-orthonormalize: the propagated factor columns already carry the
	// σ amplitudes, so the SVD's singular values are the forecast σ.
	f := linalg.ThinSVDGram(factor, p)
	sigma := make([]float64, 0, p)
	for _, sv := range f.S {
		if sv > 1e-12*(1+f.S[0]) {
			sigma = append(sigma, sv)
		}
	}
	if len(sigma) == 0 {
		return nil, nil, fmt.Errorf("core: propagated subspace collapsed to rank 0")
	}
	return central, &Subspace{Modes: f.U.Slice(0, dim, 0, len(sigma)), Sigma: sigma}, nil
}
