package core

import (
	"testing"

	"esse/internal/grid"
	"esse/internal/linalg"
	"esse/internal/obs"
	"esse/internal/rng"
)

// smootherTwin builds a linear-dynamics twin setup: members are drawn at
// t0, advanced by x1 = A x0, and the truth follows the same dynamics.
// Observations at t1 should then pull the t0 estimate toward the t0
// truth through the cross-covariance.
func smootherTwin(t *testing.T, seed uint64, members int) (x0 []float64, truth0 []float64,
	anoms0, anoms1 *linalg.Dense, network *obs.Points, y []float64) {
	t.Helper()
	s := rng.New(seed)
	g := grid.New(5, 5, 1, 1, 1, 0)
	l := grid.NewLayout(g, []grid.VarSpec{{Name: "T", Levels: 1}})
	dim := l.Dim()

	// Linear dynamics: a contraction plus a fixed rotation-ish mixing.
	a := linalg.Identity(dim)
	for i := 0; i < dim-1; i++ {
		a.Set(i, i+1, 0.3)
	}
	linalg.ScaleInPlace(0.9, a)
	advance := func(x []float64) []float64 { return linalg.MatVec(a, x) }

	x0 = s.NormVec(nil, dim)
	// Truth = estimate + error of the same magnitude as member spread.
	err0 := s.NormVec(nil, dim)
	truth0 = make([]float64, dim)
	for i := range truth0 {
		truth0[i] = x0[i] + err0[i]
	}
	truth1 := advance(truth0)

	anoms0 = linalg.NewDense(dim, members)
	anoms1 = linalg.NewDense(dim, members)
	for j := 0; j < members; j++ {
		pert := s.NormVec(nil, dim)
		anoms0.SetCol(j, pert)
		anoms1.SetCol(j, advance(pert))
	}

	net := obs.NewNetwork(l)
	for i := 0; i < 5; i++ {
		if err := net.Add(obs.Observation{Var: "T", I: i, J: i, K: 0, Stddev: 0.1}); err != nil {
			t.Fatal(err)
		}
	}
	network = unitPoints(t, net)
	x1 := advance(x0)
	yObs := net.Sample(truth1, s)
	y = linalg.VecSub(yObs, network.ApplyH(x1)) // innovation at t1
	return
}

func TestSmootherReducesEarlierError(t *testing.T) {
	improved := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		x0, truth0, a0, a1, network, y := smootherTwin(t, uint64(200+trial), 60)
		res, err := SmoothPrevious(x0, a0, a1, network, y)
		if err != nil {
			t.Fatal(err)
		}
		before := linalg.Norm2(linalg.VecSub(x0, truth0))
		after := linalg.Norm2(linalg.VecSub(res.Mean, truth0))
		if after < before {
			improved++
		}
	}
	if improved < trials*3/5 {
		t.Fatalf("smoother improved the earlier state in only %d/%d trials", improved, trials)
	}
}

func TestSmootherNoObsIsIdentity(t *testing.T) {
	x0, _, a0, a1, _, _ := smootherTwin(t, 1, 10)
	g := grid.New(5, 5, 1, 1, 1, 0)
	l := grid.NewLayout(g, []grid.VarSpec{{Name: "T", Levels: 1}})
	empty := unitPoints(t, obs.NewNetwork(l))
	res, err := SmoothPrevious(x0, a0, a1, empty, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.IncrementNorm != 0 {
		t.Fatalf("empty network produced increment %v", res.IncrementNorm)
	}
	for i := range x0 {
		if res.Mean[i] != x0[i] {
			t.Fatal("state changed with no observations")
		}
	}
}

func TestSmootherValidation(t *testing.T) {
	x0, _, a0, a1, network, y := smootherTwin(t, 2, 10)
	short := a1.Slice(0, a1.Rows, 0, 5)
	if _, err := SmoothPrevious(x0, a0, short, network, y); err == nil {
		t.Fatal("column mismatch accepted")
	}
	if _, err := SmoothPrevious(x0[:3], a0, a1, network, y); err == nil {
		t.Fatal("state dim mismatch accepted")
	}
	if _, err := SmoothPrevious(x0, a0, a1, network, y[:1]); err == nil {
		t.Fatal("obs count mismatch accepted")
	}
	one := a0.Slice(0, a0.Rows, 0, 1)
	if _, err := SmoothPrevious(x0, one, one, network, y); err == nil {
		t.Fatal("single-member ensemble accepted")
	}
}

func TestSmootherIncrementInSpan(t *testing.T) {
	// The smoother increment must lie in the span of the t0 anomalies.
	x0, _, a0, a1, network, y := smootherTwin(t, 3, 8)
	res, err := SmoothPrevious(x0, a0, a1, network, y)
	if err != nil {
		t.Fatal(err)
	}
	incr := linalg.VecSub(res.Mean, x0)
	// Project onto an orthonormal basis of span(A0) and compare.
	qr := linalg.QR(a0)
	coef := linalg.MatTVec(qr.Q, incr)
	proj := linalg.MatVec(qr.Q, coef)
	resid := linalg.Norm2(linalg.VecSub(incr, proj))
	if resid > 1e-9*(1+linalg.Norm2(incr)) {
		t.Fatalf("smoother increment leaves the anomaly span: residual %v", resid)
	}
}

func TestSmootherZeroInnovationNoChange(t *testing.T) {
	x0, _, a0, a1, network, y := smootherTwin(t, 4, 12)
	for i := range y {
		y[i] = 0
	}
	res, err := SmoothPrevious(x0, a0, a1, network, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.IncrementNorm > 1e-12 {
		t.Fatalf("zero innovation moved the state by %v", res.IncrementNorm)
	}
}
