package core

import (
	"math"
	"testing"

	"esse/internal/grid"
	"esse/internal/linalg"
	"esse/internal/obs"
	"esse/internal/rng"
)

// unitPoints is the network's operator in physical units (every scale 1,
// so R is each observation's σ²).
func unitPoints(t *testing.T, n *obs.Network) *obs.Points {
	t.Helper()
	ones := make([]float64, n.Layout.Dim())
	for i := range ones {
		ones[i] = 1
	}
	p, err := obs.NewScaled(n, ones)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// scalarSetup builds a 1-variable, 2x2x1 grid whose state has 4 elements,
// a rank-1 subspace aligned with state element 0, and one observation of
// that element. The update then reduces to the textbook scalar Kalman
// filter, which we can check analytically.
func scalarSetup(t *testing.T, priorVar, obsVar float64) (*grid.StateLayout, *Subspace, *obs.Points) {
	t.Helper()
	g := grid.New(2, 2, 1, 1, 1, 0)
	l := grid.NewLayout(g, []grid.VarSpec{{Name: "T", Levels: 1}})
	e := linalg.NewDense(4, 1)
	e.Set(0, 0, 1)
	sub := &Subspace{Modes: e, Sigma: []float64{math.Sqrt(priorVar)}}
	n := obs.NewNetwork(l)
	if err := n.Add(obs.Observation{Var: "T", I: 0, J: 0, K: 0, Stddev: math.Sqrt(obsVar)}); err != nil {
		t.Fatal(err)
	}
	return l, sub, unitPoints(t, n)
}

func TestAssimilateMatchesScalarKalman(t *testing.T) {
	priorVar, obsVar := 4.0, 1.0
	_, sub, n := scalarSetup(t, priorVar, obsVar)
	x := []float64{10, 0, 0, 0}
	y := []float64{12}
	an, err := Assimilate(x, sub, n, y)
	if err != nil {
		t.Fatal(err)
	}
	// Scalar Kalman: K = P/(P+R) = 4/5; xa = 10 + 0.8*2 = 11.6;
	// Pa = (1-K)P = 0.8.
	if math.Abs(an.Mean[0]-11.6) > 1e-10 {
		t.Fatalf("analysis mean = %v, want 11.6", an.Mean[0])
	}
	if math.Abs(an.Posterior.Sigma[0]*an.Posterior.Sigma[0]-0.8) > 1e-10 {
		t.Fatalf("posterior variance = %v, want 0.8", an.Posterior.Sigma[0]*an.Posterior.Sigma[0])
	}
	// Unobserved elements unchanged.
	for i := 1; i < 4; i++ {
		if an.Mean[i] != 0 {
			t.Fatalf("unobserved element %d changed to %v", i, an.Mean[i])
		}
	}
}

// TestAssimilateMatchesKalmanFullRank is the exact oracle of the
// subspace update in more than one dimension. With a full-rank subspace
// (orthonormal modes spanning the whole 8-element state, distinct σ) the
// ESSE update is the textbook Kalman filter: its mean must be
// x + PHᵀ(HPHᵀ+R)⁻¹(y − Hx) and its posterior Ea Γa Eaᵀ must be
// (I − KH)P, with P = E Γ Eᵀ, here formed with an explicit H and a
// Gauss–Jordan inverse that share no code with Assimilate.
func TestAssimilateMatchesKalmanFullRank(t *testing.T) {
	s := rng.New(17)
	g := grid.New(2, 2, 2, 1, 1, 100)
	l := grid.NewLayout(g, []grid.VarSpec{{Name: "T", Levels: 2}})
	dim := l.Dim()
	sub := randomSubspace(s, dim, dim, []float64{2, 1.6, 1.3, 1, 0.8, 0.55, 0.35, 0.2})
	net := obs.NewNetwork(l)
	for _, o := range []obs.Observation{
		{Var: "T", I: 0, J: 0, K: 0, Stddev: 0.3},
		{Var: "T", I: 1, J: 0, K: 1, Stddev: 0.7},
		{Var: "T", I: 0, J: 1, K: 0, Stddev: 1.1},
		{Var: "T", I: 1, J: 1, K: 1, Stddev: 0.45},
	} {
		if err := net.Add(o); err != nil {
			t.Fatal(err)
		}
	}
	n := unitPoints(t, net)
	x := s.NormVec(nil, dim)
	y := s.NormVec(nil, n.Len())
	an, err := Assimilate(x, sub, n, y)
	if err != nil {
		t.Fatal(err)
	}

	// P = E Γ Eᵀ, H row by row from unit states, R diagonal.
	cov := func(sub *Subspace) *linalg.Dense {
		c := linalg.NewDense(dim, dim)
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				for k, sg := range sub.Sigma {
					c.Data[i*dim+j] += sub.Modes.At(i, k) * sg * sg * sub.Modes.At(j, k)
				}
			}
		}
		return c
	}
	p := cov(sub)
	m := n.Len()
	h := linalg.NewDense(m, dim)
	for j := 0; j < dim; j++ {
		e := make([]float64, dim)
		e[j] = 1
		for i, v := range n.ApplyH(e) {
			h.Set(i, j, v)
		}
	}
	ph := linalg.NewDense(dim, m) // P Hᵀ
	for i := 0; i < dim; i++ {
		for o := 0; o < m; o++ {
			for k := 0; k < dim; k++ {
				ph.Data[i*m+o] += p.At(i, k) * h.At(o, k)
			}
		}
	}
	sm := linalg.NewDense(m, m) // H P Hᵀ + R
	for a := 0; a < m; a++ {
		for b := 0; b < m; b++ {
			for k := 0; k < dim; k++ {
				sm.Data[a*m+b] += h.At(a, k) * ph.At(k, b)
			}
		}
		sm.Data[a*m+a] += n.R[a]
	}
	gain := linalg.NewDense(dim, m) // K = P Hᵀ S⁻¹
	sInv := gaussJordanInverse(t, sm)
	for i := 0; i < dim; i++ {
		for b := 0; b < m; b++ {
			for a := 0; a < m; a++ {
				gain.Data[i*m+b] += ph.At(i, a) * sInv.At(a, b)
			}
		}
	}
	hx := n.ApplyH(x)
	for i := 0; i < dim; i++ {
		want := x[i]
		for o := 0; o < m; o++ {
			want += gain.At(i, o) * (y[o] - hx[o])
		}
		if d := math.Abs(an.Mean[i] - want); !(d <= 1e-10) {
			t.Errorf("mean[%d] = %v, Kalman %v (|diff| %g)", i, an.Mean[i], want, d)
		}
	}
	pa := cov(an.Posterior)
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			want := p.At(i, j) // ((I − KH) P)ᵢⱼ
			for o := 0; o < m; o++ {
				for k := 0; k < dim; k++ {
					want -= gain.At(i, o) * h.At(o, k) * p.At(k, j)
				}
			}
			if d := math.Abs(pa.At(i, j) - want); !(d <= 1e-10) {
				t.Errorf("posterior covariance (%d,%d) = %v, (I − KH)P %v (|diff| %g)", i, j, pa.At(i, j), want, d)
			}
		}
	}
}

// gaussJordanInverse inverts a small matrix by Gauss–Jordan elimination
// with partial pivoting: an oracle that shares no code with the
// Cholesky inverse Assimilate uses.
func gaussJordanInverse(t *testing.T, a *linalg.Dense) *linalg.Dense {
	t.Helper()
	n := a.Rows
	w, inv := a.Clone(), linalg.Identity(n)
	for c := 0; c < n; c++ {
		piv := c
		for r := c + 1; r < n; r++ {
			if math.Abs(w.At(r, c)) > math.Abs(w.At(piv, c)) {
				piv = r
			}
		}
		if w.At(piv, c) == 0 {
			t.Fatalf("singular %dx%d matrix", n, n)
		}
		for _, mat := range []*linalg.Dense{w, inv} {
			rc, rp := mat.Row(c), mat.Row(piv)
			for j := range rc {
				rc[j], rp[j] = rp[j], rc[j]
			}
		}
		d := w.At(c, c)
		for _, mat := range []*linalg.Dense{w, inv} {
			for j, v := range mat.Row(c) {
				mat.Row(c)[j] = v / d
			}
		}
		for r := 0; r < n; r++ {
			if f := w.At(r, c); r != c && f != 0 {
				for _, mat := range []*linalg.Dense{w, inv} {
					rr, rc := mat.Row(r), mat.Row(c)
					for j := range rr {
						rr[j] -= f * rc[j]
					}
				}
			}
		}
	}
	return inv
}

func TestAssimilateReducesResidual(t *testing.T) {
	_, sub, n := scalarSetup(t, 4, 1)
	an, err := Assimilate([]float64{10, 0, 0, 0}, sub, n, []float64{12})
	if err != nil {
		t.Fatal(err)
	}
	if an.ResidualNorm >= an.InnovationNorm {
		t.Fatalf("residual %v not below innovation %v", an.ResidualNorm, an.InnovationNorm)
	}
}

func TestAssimilateReducesVariance(t *testing.T) {
	// Multi-mode subspace with several observations: total posterior
	// variance must not exceed the prior, and the posterior must satisfy
	// the subspace invariants.
	s := rng.New(5)
	g := grid.New(4, 4, 2, 1, 1, 100)
	l := grid.NewLayout(g, []grid.VarSpec{{Name: "T", Levels: 2}})
	sub := randomSubspace(s, l.Dim(), 4, []float64{2, 1.5, 1, 0.5})
	net := obs.NewNetwork(l)
	for i := 0; i < 4; i++ {
		if err := net.Add(obs.Observation{Var: "T", I: i, J: i, K: 0, Stddev: 0.3}); err != nil {
			t.Fatal(err)
		}
	}
	n := unitPoints(t, net)
	x := s.NormVec(nil, l.Dim())
	truth := s.NormVec(nil, l.Dim())
	y := n.ApplyH(truth)
	an, err := Assimilate(x, sub, n, y)
	if err != nil {
		t.Fatal(err)
	}
	if an.Posterior.TotalVariance() > sub.TotalVariance()+1e-10 {
		t.Fatalf("posterior variance %v exceeds prior %v",
			an.Posterior.TotalVariance(), sub.TotalVariance())
	}
	if err := an.Posterior.Check(1e-7); err != nil {
		t.Fatal(err)
	}
}

func TestAssimilateNoObservationsIsIdentity(t *testing.T) {
	s := rng.New(6)
	g := grid.New(3, 3, 1, 1, 1, 0)
	l := grid.NewLayout(g, []grid.VarSpec{{Name: "T", Levels: 1}})
	sub := randomSubspace(s, l.Dim(), 2, []float64{1, 0.5})
	n := unitPoints(t, obs.NewNetwork(l))
	x := s.NormVec(nil, l.Dim())
	an, err := Assimilate(x, sub, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if an.Mean[i] != x[i] {
			t.Fatal("mean changed with no observations")
		}
	}
	if math.Abs(an.Posterior.TotalVariance()-sub.TotalVariance()) > 1e-12 {
		t.Fatal("variance changed with no observations")
	}
}

func TestAssimilatePerfectObservationPinsState(t *testing.T) {
	// Near-zero observation error: the analysis must move essentially all
	// the way to the observation.
	_, sub, _ := scalarSetup(t, 4, 1)
	g := grid.New(2, 2, 1, 1, 1, 0)
	l := grid.NewLayout(g, []grid.VarSpec{{Name: "T", Levels: 1}})
	n := obs.NewNetwork(l)
	if err := n.Add(obs.Observation{Var: "T", I: 0, J: 0, K: 0, Stddev: 1e-4}); err != nil {
		t.Fatal(err)
	}
	an, err := Assimilate([]float64{10, 0, 0, 0}, sub, unitPoints(t, n), []float64{13})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(an.Mean[0]-13) > 1e-4 {
		t.Fatalf("near-perfect obs: mean = %v, want ~13", an.Mean[0])
	}
	if v := an.Posterior.Sigma[0]; v > 1e-3 {
		t.Fatalf("posterior sigma %v should collapse under near-perfect obs", v)
	}
}

func TestAssimilateDimensionErrors(t *testing.T) {
	_, sub, n := scalarSetup(t, 1, 1)
	if _, err := Assimilate([]float64{1, 2, 3, 4}, sub, n, []float64{1, 2}); err == nil {
		t.Fatal("observation count mismatch not detected")
	}
	if _, err := Assimilate([]float64{1, 2}, sub, n, []float64{1}); err == nil {
		t.Fatal("state dimension mismatch not detected")
	}
}

func TestAssimilatePullsTowardTruth(t *testing.T) {
	// Monte-Carlo twin check: analyses must on average be closer to the
	// truth than the forecasts, in the observed subspace.
	s := rng.New(7)
	g := grid.New(5, 5, 1, 1, 1, 0)
	l := grid.NewLayout(g, []grid.VarSpec{{Name: "T", Levels: 1}})
	net := obs.NewNetwork(l)
	for i := 0; i < 5; i++ {
		if err := net.Add(obs.Observation{Var: "T", I: i, J: i, K: 0, Stddev: 0.2}); err != nil {
			t.Fatal(err)
		}
	}
	n := unitPoints(t, net)
	better := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		st := s.Split(uint64(trial))
		sub := randomSubspace(st, l.Dim(), 5, []float64{2, 1.5, 1.2, 1, 0.8})
		truth := st.NormVec(nil, l.Dim())
		// Forecast = truth + error drawn from the prior subspace.
		x := make([]float64, l.Dim())
		sub.Perturb(x, st, 0)
		for i := range x {
			x[i] += truth[i]
		}
		y := net.Sample(truth, st)
		an, err := Assimilate(x, sub, n, y)
		if err != nil {
			t.Fatal(err)
		}
		errF := linalg.Norm2(linalg.VecSub(n.ApplyH(x), n.ApplyH(truth)))
		errA := linalg.Norm2(linalg.VecSub(n.ApplyH(an.Mean), n.ApplyH(truth)))
		if errA < errF {
			better++
		}
	}
	if better < trials*3/4 {
		t.Fatalf("analysis beat forecast in only %d/%d trials", better, trials)
	}
}

// TestAssimilateStatisticalConsistency checks the update's two
// statistical invariants on a twin whose truth lies in the prior
// subspace: x_true = x_f + E diag(σ) u with u ~ N(0, I), and
// y = H x_true + v with v ~ N(0, R). Then the innovation d = y − H x_f
// is N(0, S), S = HE Γ HEᵀ + R, so dᵀS⁻¹d is χ² with m degrees of
// freedom and dᵀS⁻¹d/m has mean 1 and variance 2/m. And the analysis
// error x_a − x_true is N(0, Pa), Pa = Ea diag(σa²) Eaᵀ, so its squared
// norm has mean tr Pa = Σσa² and variance 2 tr Pa² = 2 Σσa⁴. Each mean
// over the trials must lie within four standard errors of its
// expectation. A rank-truncated subspace breaks the premise, not the
// update: this twin is the baseline a cycled run's skill is judged on.
func TestAssimilateStatisticalConsistency(t *testing.T) {
	s := rng.New(2024)
	g := grid.New(6, 6, 1, 1, 1, 0)
	l := grid.NewLayout(g, []grid.VarSpec{{Name: "T", Levels: 1}})
	sub := randomSubspace(s, l.Dim(), 6, []float64{2, 1.5, 1.2, 1, 0.8, 0.5})
	net := obs.NewNetwork(l)
	for i, sd := range []float64{0.3, 0.5, 0.8, 0.4, 0.6, 0.3, 0.7, 0.5} {
		if err := net.Add(obs.Observation{Var: "T", I: i % 6, J: i / 2, K: 0, Stddev: sd}); err != nil {
			t.Fatal(err)
		}
	}
	n := unitPoints(t, net)
	m := n.Len()

	// S⁻¹ from an explicit S, by the Gauss–Jordan oracle.
	he := n.ApplyHMat(sub.Modes)
	sm := linalg.NewDense(m, m)
	for a := 0; a < m; a++ {
		for b := 0; b < m; b++ {
			for k, sg := range sub.Sigma {
				sm.Data[a*m+b] += he.At(a, k) * sg * sg * he.At(b, k)
			}
		}
		sm.Data[a*m+a] += n.R[a]
	}
	sInv := gaussJordanInverse(t, sm)

	const trials = 10000
	var chi2, sqErr, traceA, traceA2 float64
	for trial := 0; trial < trials; trial++ {
		st := s.Split(uint64(trial))
		xf := st.NormVec(nil, l.Dim())
		truth := sub.Perturb(nil, st, 0)
		for i := range truth {
			truth[i] += xf[i]
		}
		y := net.Sample(truth, st)
		an, err := Assimilate(xf, sub, n, y)
		if err != nil {
			t.Fatal(err)
		}
		d := linalg.VecSub(y, n.ApplyH(xf))
		chi2 += linalg.Dot(d, linalg.MatVec(sInv, d)) / float64(m)
		e := linalg.VecSub(an.Mean, truth)
		sqErr += linalg.Dot(e, e)
		if trial == 0 {
			for _, sg := range an.Posterior.Sigma {
				traceA += sg * sg
				traceA2 += sg * sg * sg * sg
			}
		}
	}
	chi2 /= trials
	sqErr /= trials

	if se := math.Sqrt(2 / float64(m) / trials); math.Abs(chi2-1) > 4*se {
		t.Errorf("mean dᵀS⁻¹d/m = %.4f, want 1 ± %.4f (4 standard errors)", chi2, 4*se)
	}
	if se := math.Sqrt(2 * traceA2 / trials); math.Abs(sqErr-traceA) > 4*se {
		t.Errorf("mean squared analysis error %.4f, tr Pa %.4f: want within %.4f (4 standard errors)", sqErr, traceA, 4*se)
	}
	t.Logf("dᵀS⁻¹d/m %.4f; squared analysis error %.4f vs tr Pa %.4f (ratio %.4f)", chi2, sqErr, traceA, sqErr/traceA)
}
