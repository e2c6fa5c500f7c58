package experiments

import (
	"context"
	"time"

	"esse/internal/core"
	"esse/internal/linalg"
	"esse/internal/rng"
	"esse/internal/workflow"
)

// toySubspace builds a fixed orthonormal "true" error subspace used by
// the serial-vs-parallel comparison, where the point is the workflow
// mechanics rather than ocean physics.
func toySubspace(seed uint64, dim, p int) *core.Subspace {
	s := rng.New(seed)
	a := linalg.NewDense(dim, p)
	for i := range a.Data {
		a.Data[i] = s.Norm()
	}
	f := linalg.QR(a)
	sigma := make([]float64, p)
	for i := range sigma {
		sigma[i] = float64(p - i)
	}
	return &core.Subspace{Modes: f.Q, Sigma: sigma}
}

// delayedToyRunner draws members from the true subspace after an
// emulated forecast delay. Member results depend only on the index, so
// serial and parallel runs produce identical member sets.
func delayedToyRunner(truth *core.Subspace, seed uint64, delay time.Duration) workflow.MemberRunner {
	master := rng.New(seed)
	return func(ctx context.Context, index int) ([]float64, error) {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		} else if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		st := master.Split(uint64(index))
		return truth.Perturb(nil, st, 0.01), nil
	}
}
