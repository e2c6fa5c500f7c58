package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"esse/internal/linalg"
	"esse/internal/rng"
)

// linearPropagator returns M(x) = A x + b: for a linear model, tangent
// propagation is exact at any linearization step.
func linearPropagator(a *linalg.Dense, b []float64) Propagator {
	return func(ctx context.Context, x []float64) ([]float64, error) {
		y := linalg.MatVec(a, x)
		for i := range y {
			y[i] += b[i]
		}
		return y, nil
	}
}

func TestPropagateSubspaceLinearExact(t *testing.T) {
	s := rng.New(1)
	dim, p := 12, 3
	a := randomDenseCore(s, dim, dim)
	b := s.NormVec(nil, dim)
	sub := randomSubspace(s, dim, p, []float64{3, 2, 1})
	mean := s.NormVec(nil, dim)

	newMean, newSub, err := PropagateSubspace(context.Background(),
		linearPropagator(a, b), mean, sub, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Mean: A x + b.
	wantMean := linalg.MatVec(a, mean)
	for i := range wantMean {
		wantMean[i] += b[i]
		if math.Abs(newMean[i]-wantMean[i]) > 1e-10 {
			t.Fatalf("propagated mean wrong at %d", i)
		}
	}
	// Covariance: A E Σ² Eᵀ Aᵀ. Its factor is A E Σ, whose SVD gives the
	// propagated subspace; compare total variance and reconstruction.
	es := linalg.NewDense(dim, p)
	for i := 0; i < dim; i++ {
		for j := 0; j < p; j++ {
			es.Set(i, j, sub.Modes.At(i, j)*sub.Sigma[j])
		}
	}
	factor := linalg.Mul(a, es)
	wantCov := linalg.MulBT(factor, factor)
	gotFactor := linalg.NewDense(dim, newSub.Rank())
	for i := 0; i < dim; i++ {
		for j := 0; j < newSub.Rank(); j++ {
			gotFactor.Set(i, j, newSub.Modes.At(i, j)*newSub.Sigma[j])
		}
	}
	gotCov := linalg.MulBT(gotFactor, gotFactor)
	if !gotCov.EqualApprox(wantCov, 1e-7*(1+wantCov.MaxAbs())) {
		t.Fatal("propagated covariance != A P Aᵀ for a linear model")
	}
	if err := newSub.Check(1e-7); err != nil {
		t.Fatal(err)
	}
}

func TestPropagateSubspaceStepInvarianceLinear(t *testing.T) {
	// For a linear model, the result must not depend on eps.
	s := rng.New(2)
	dim := 8
	a := randomDenseCore(s, dim, dim)
	b := make([]float64, dim)
	sub := randomSubspace(s, dim, 2, []float64{2, 1})
	mean := s.NormVec(nil, dim)
	_, subA, err := PropagateSubspace(context.Background(), linearPropagator(a, b), mean, sub, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, subB, err := PropagateSubspace(context.Background(), linearPropagator(a, b), mean, sub, 2.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rho := SimilarityCoefficient(subA, subB); rho < 1-1e-7 {
		t.Fatalf("eps changed the linear propagation: rho=%v", rho)
	}
}

func TestPropagateSubspaceRotation(t *testing.T) {
	// A 90° rotation must rotate the subspace with it.
	a := &linalg.Dense{Rows: 2, Cols: 2, Data: []float64{0, -1, 1, 0}}
	e := linalg.NewDense(2, 1)
	e.Set(0, 0, 1)
	sub := &Subspace{Modes: e, Sigma: []float64{2}}
	_, newSub, err := PropagateSubspace(context.Background(),
		linearPropagator(a, []float64{0, 0}), []float64{0, 0}, sub, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(math.Abs(newSub.Modes.At(1, 0))-1) > 1e-10 {
		t.Fatalf("mode not rotated: %v", newSub.Modes.Data)
	}
	if math.Abs(newSub.Sigma[0]-2) > 1e-10 {
		t.Fatalf("rotation changed sigma: %v", newSub.Sigma[0])
	}
}

func TestPropagateSubspaceContraction(t *testing.T) {
	// A contracting model must shrink the predicted uncertainty.
	a := linalg.Identity(5)
	linalg.ScaleInPlace(0.5, a)
	s := rng.New(3)
	sub := randomSubspace(s, 5, 2, []float64{2, 1})
	_, newSub, err := PropagateSubspace(context.Background(),
		linearPropagator(a, make([]float64, 5)), s.NormVec(nil, 5), sub, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(newSub.TotalVariance()-0.25*sub.TotalVariance()) > 1e-8 {
		t.Fatalf("contraction: variance %v, want %v", newSub.TotalVariance(), 0.25*sub.TotalVariance())
	}
}

func TestPropagateSubspaceErrors(t *testing.T) {
	s := rng.New(4)
	sub := randomSubspace(s, 4, 2, []float64{1, 1})
	mean := make([]float64, 4)
	ok := linearPropagator(linalg.Identity(4), make([]float64, 4))
	if _, _, err := PropagateSubspace(context.Background(), ok, mean, sub, 0, 1); err == nil {
		t.Fatal("zero eps accepted")
	}
	if _, _, err := PropagateSubspace(context.Background(), ok, []float64{1}, sub, 1, 1); err == nil {
		t.Fatal("mean dim mismatch accepted")
	}
	failing := func(ctx context.Context, x []float64) ([]float64, error) {
		return nil, errors.New("model exploded")
	}
	if _, _, err := PropagateSubspace(context.Background(), failing, mean, sub, 1, 2); err == nil {
		t.Fatal("propagator failure swallowed")
	}
}

func TestPropagateSubspaceRankCollapse(t *testing.T) {
	// A model that maps everything to a constant kills all variance.
	constant := func(ctx context.Context, x []float64) ([]float64, error) {
		return make([]float64, len(x)), nil
	}
	s := rng.New(5)
	sub := randomSubspace(s, 4, 2, []float64{1, 1})
	if _, _, err := PropagateSubspace(context.Background(), constant, make([]float64, 4), sub, 1, 1); err == nil {
		t.Fatal("rank collapse not reported")
	}
}

// TestPropagateSubspaceDegenerateMode keeps a σ = 0 mode's column zero
// and propagates the others.
func TestPropagateSubspaceDegenerateMode(t *testing.T) {
	s := rng.New(8)
	sub := randomSubspace(s, 5, 3, []float64{3, 0, 1})
	_, newSub, err := PropagateSubspace(context.Background(),
		linearPropagator(linalg.Identity(5), make([]float64, 5)), make([]float64, 5), sub, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if newSub.Rank() != 2 || math.Abs(newSub.Sigma[0]-3) > 1e-10 || math.Abs(newSub.Sigma[1]-1) > 1e-10 {
		t.Fatalf("sigma = %v, want [3 1]", newSub.Sigma)
	}
}

// TestPropagateSubspaceCancelledMidRun cancels a propagation whose
// mode runs block until their context is done: the call returns
// context.Canceled promptly and leaves no goroutine behind.
func TestPropagateSubspaceCancelledMidRun(t *testing.T) {
	before := runtime.NumGoroutine()
	s := rng.New(6)
	dim, p := 6, 5
	sub := randomSubspace(s, dim, p, []float64{5, 4, 3, 2, 1})
	mean := make([]float64, dim)
	started := make(chan struct{}, p)
	blocking := func(ctx context.Context, x []float64) ([]float64, error) {
		if slices.Equal(x, mean) {
			return x, nil // the central run
		}
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	t0 := time.Now()
	_, _, err := PropagateSubspace(ctx, blocking, mean, sub, 1, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("cancelled propagation took %v to return", d)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestPropagateSubspaceNamesTheLowestFailedMode fails modes 1 and 3,
// the higher one first: the error names mode 1 at every worker count.
func TestPropagateSubspaceNamesTheLowestFailedMode(t *testing.T) {
	s := rng.New(7)
	dim := 5
	sub := randomSubspace(s, dim, 4, []float64{4, 3, 2, 1})
	mean := make([]float64, dim)
	// With eps = 1 and a zero mean, mode j's run starts from σ_j e_j.
	mode := func(x []float64) int {
		for j := 0; j < sub.Rank(); j++ {
			match := true
			for i := range x {
				if math.Abs(x[i]-sub.Sigma[j]*sub.Modes.At(i, j)) > 1e-12 {
					match = false
					break
				}
			}
			if match {
				return j
			}
		}
		return -1
	}
	failing := func(ctx context.Context, x []float64) ([]float64, error) {
		switch mode(x) {
		case 1:
			time.Sleep(5 * time.Millisecond) // the lower failure lands last
			return nil, errors.New("mode one exploded")
		case 3:
			return nil, errors.New("mode three exploded")
		}
		return x, nil
	}
	for _, workers := range []int{1, 2, 8} {
		_, _, err := PropagateSubspace(context.Background(), failing, mean, sub, 1, workers)
		if err == nil || !strings.Contains(err.Error(), "mode 1 propagation") {
			t.Fatalf("workers %d: err = %v, want mode 1's", workers, err)
		}
	}
}

// randomDenseCore avoids clashing with helpers in other test files.
func randomDenseCore(s *rng.Stream, r, c int) *linalg.Dense {
	m := linalg.NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = s.Norm()
	}
	return m
}
