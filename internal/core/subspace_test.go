package core

import (
	"math"
	"testing"

	"esse/internal/linalg"
	"esse/internal/rng"
)

// randomSubspace builds an orthonormal subspace of rank p in dimension m
// with the given sigmas via QR of a random matrix.
func randomSubspace(s *rng.Stream, m, p int, sigma []float64) *Subspace {
	a := linalg.NewDense(m, p)
	for i := range a.Data {
		a.Data[i] = s.Norm()
	}
	f := linalg.QR(a)
	sig := make([]float64, p)
	copy(sig, sigma)
	return &Subspace{Modes: f.Q, Sigma: sig}
}

func TestSubspaceFromAnomaliesReconstructsCovariance(t *testing.T) {
	s := rng.New(1)
	m, n := 30, 12
	a := linalg.NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = s.Norm()
	}
	sub := SubspaceFromAnomalies(a, 0, 0)
	// P = A Aᵀ/(n−1) must equal E Σ² Eᵀ when no truncation occurs.
	p := linalg.MulBT(a, a)
	linalg.ScaleInPlace(1/float64(n-1), p)
	es := linalg.NewDense(m, sub.Rank())
	for i := 0; i < m; i++ {
		for j := 0; j < sub.Rank(); j++ {
			es.Set(i, j, sub.Modes.At(i, j)*sub.Sigma[j]*sub.Sigma[j])
		}
	}
	rec := linalg.MulBT(es, sub.Modes)
	if !rec.EqualApprox(p, 1e-8*(1+p.MaxAbs())) {
		t.Fatal("E Σ² Eᵀ does not reconstruct the sample covariance")
	}
}

func TestSubspaceInvariants(t *testing.T) {
	s := rng.New(2)
	a := linalg.NewDense(50, 8)
	for i := range a.Data {
		a.Data[i] = s.Norm()
	}
	sub := SubspaceFromAnomalies(a, 0, 1e-12)
	if err := sub.Check(1e-8); err != nil {
		t.Fatal(err)
	}
}

func TestSubspaceTruncationByTolerance(t *testing.T) {
	// Rank-2 anomalies: higher modes must be dropped at a loose relTol.
	s := rng.New(3)
	u := linalg.NewDense(40, 2)
	for i := range u.Data {
		u.Data[i] = s.Norm()
	}
	v := linalg.NewDense(10, 2)
	for i := range v.Data {
		v.Data[i] = s.Norm()
	}
	a := linalg.MulBT(u, v)
	sub := SubspaceFromAnomalies(a, 0, 1e-6)
	if sub.Rank() != 2 {
		t.Fatalf("rank = %d, want 2 (σ = %v)", sub.Rank(), sub.Sigma)
	}
}

func TestSubspaceMaxRank(t *testing.T) {
	s := rng.New(4)
	a := linalg.NewDense(30, 10)
	for i := range a.Data {
		a.Data[i] = s.Norm()
	}
	sub := SubspaceFromAnomalies(a, 4, 0)
	if sub.Rank() != 4 {
		t.Fatalf("rank = %d, want 4", sub.Rank())
	}
}

func TestTotalVarianceMatchesTrace(t *testing.T) {
	s := rng.New(5)
	a := linalg.NewDense(25, 8)
	for i := range a.Data {
		a.Data[i] = s.Norm()
	}
	sub := SubspaceFromAnomalies(a, 0, 0)
	// Trace of sample covariance == total variance (no truncation).
	p := linalg.MulBT(a, a)
	linalg.ScaleInPlace(1/float64(a.Cols-1), p)
	if math.Abs(sub.TotalVariance()-p.Trace()) > 1e-8*(1+p.Trace()) {
		t.Fatalf("TotalVariance %v != trace %v", sub.TotalVariance(), p.Trace())
	}
}

func TestVariancePointwise(t *testing.T) {
	s := rng.New(6)
	sub := randomSubspace(s, 20, 3, []float64{3, 2, 1})
	vp := sub.VariancePointwise()
	// Compare against explicit diag(E Σ² Eᵀ).
	for i := 0; i < 20; i++ {
		want := 0.0
		for j := 0; j < 3; j++ {
			e := sub.Modes.At(i, j)
			want += e * e * sub.Sigma[j] * sub.Sigma[j]
		}
		if math.Abs(vp[i]-want) > 1e-12 {
			t.Fatalf("VariancePointwise[%d] = %v, want %v", i, vp[i], want)
		}
	}
}

func TestPerturbStatistics(t *testing.T) {
	s := rng.New(7)
	m, p := 6, 2
	sub := randomSubspace(s, m, p, []float64{2, 1})
	const draws = 40000
	mean := make([]float64, m)
	cov := linalg.NewDense(m, m)
	buf := make([]float64, m)
	for d := 0; d < draws; d++ {
		sub.Perturb(buf, s, 0)
		for i := range buf {
			mean[i] += buf[i]
		}
		linalg.OuterAdd(cov, 1, buf, buf)
	}
	for i := range mean {
		mean[i] /= draws
		if math.Abs(mean[i]) > 0.05 {
			t.Fatalf("perturbation mean[%d] = %v, want ~0", i, mean[i])
		}
	}
	linalg.ScaleInPlace(1.0/draws, cov)
	// Expected covariance E Σ² Eᵀ.
	want := linalg.NewDense(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			v := 0.0
			for k := 0; k < p; k++ {
				v += sub.Modes.At(i, k) * sub.Modes.At(j, k) * sub.Sigma[k] * sub.Sigma[k]
			}
			want.Set(i, j, v)
		}
	}
	if !cov.EqualApprox(want, 0.12) {
		t.Fatal("sample covariance of perturbations deviates from E Σ² Eᵀ")
	}
}

func TestPerturbWhiteNoiseAddsVariance(t *testing.T) {
	s := rng.New(8)
	sub := randomSubspace(s, 10, 2, []float64{1, 0.5})
	const draws = 20000
	varNo, varWith := 0.0, 0.0
	buf := make([]float64, 10)
	for d := 0; d < draws; d++ {
		sub.Perturb(buf, s, 0)
		for _, v := range buf {
			varNo += v * v
		}
		sub.Perturb(buf, s, 0.5)
		for _, v := range buf {
			varWith += v * v
		}
	}
	// White noise of amplitude 0.5 adds 0.25 variance per element: total
	// added ≈ 10*0.25*draws.
	added := (varWith - varNo) / draws
	if added < 1.5 || added > 3.5 {
		t.Fatalf("white-noise added variance per draw = %v, want ~2.5", added)
	}
}

func TestSimilarityIdenticalSubspaces(t *testing.T) {
	s := rng.New(9)
	sub := randomSubspace(s, 15, 4, []float64{4, 3, 2, 1})
	if rho := SimilarityCoefficient(sub, sub); math.Abs(rho-1) > 1e-10 {
		t.Fatalf("self-similarity = %v, want 1", rho)
	}
}

func TestSimilarityOrthogonalSubspaces(t *testing.T) {
	// Disjoint coordinate subspaces are exactly orthogonal.
	m := 10
	e1 := linalg.NewDense(m, 2)
	e1.Set(0, 0, 1)
	e1.Set(1, 1, 1)
	e2 := linalg.NewDense(m, 2)
	e2.Set(2, 0, 1)
	e2.Set(3, 1, 1)
	a := &Subspace{Modes: e1, Sigma: []float64{1, 1}}
	b := &Subspace{Modes: e2, Sigma: []float64{1, 1}}
	if rho := SimilarityCoefficient(a, b); rho > 1e-12 {
		t.Fatalf("orthogonal similarity = %v, want 0", rho)
	}
}

func TestSimilarityIsVarianceWeighted(t *testing.T) {
	// b has one mode inside a (σ=3) and one outside (σ=1):
	// ρ = 9/(9+1) = 0.9.
	m := 8
	e1 := linalg.NewDense(m, 1)
	e1.Set(0, 0, 1)
	a := &Subspace{Modes: e1, Sigma: []float64{1}}
	e2 := linalg.NewDense(m, 2)
	e2.Set(0, 0, 1)
	e2.Set(5, 1, 1)
	b := &Subspace{Modes: e2, Sigma: []float64{3, 1}}
	if rho := SimilarityCoefficient(a, b); math.Abs(rho-0.9) > 1e-12 {
		t.Fatalf("weighted similarity = %v, want 0.9", rho)
	}
}

func TestSimilarityRangeProperty(t *testing.T) {
	s := rng.New(10)
	for trial := 0; trial < 20; trial++ {
		st := s.Split(uint64(trial))
		a := randomSubspace(st, 12, 1+st.Intn(5), []float64{5, 4, 3, 2, 1})
		b := randomSubspace(st, 12, 1+st.Intn(5), []float64{5, 4, 3, 2, 1})
		rho := SimilarityCoefficient(a, b)
		if rho < -1e-12 || rho > 1+1e-12 {
			t.Fatalf("similarity %v outside [0,1]", rho)
		}
	}
}

func TestConvergedCriterion(t *testing.T) {
	s := rng.New(11)
	crit := DefaultConvergence()
	sub := randomSubspace(s, 20, 3, []float64{3, 2, 1})
	if ok, rho := crit.Converged(sub, sub); !ok || math.Abs(rho-1) > 1e-9 {
		t.Fatalf("identical subspaces must converge (ok=%v rho=%v)", ok, rho)
	}
	// Same modes but very different variance: must NOT converge.
	inflated := sub.Clone()
	for i := range inflated.Sigma {
		inflated.Sigma[i] *= 2
	}
	if ok, _ := crit.Converged(sub, inflated); ok {
		t.Fatal("4x variance change must fail the convergence test")
	}
	if ok, _ := crit.Converged(nil, sub); ok {
		t.Fatal("nil previous subspace cannot converge")
	}
}

func TestTruncateSubspace(t *testing.T) {
	s := rng.New(12)
	sub := randomSubspace(s, 10, 4, []float64{4, 3, 2, 1})
	tr := sub.Truncate(2)
	if tr.Rank() != 2 || tr.Modes.Cols != 2 {
		t.Fatal("Truncate failed")
	}
	if tr.Sigma[0] != 4 || tr.Sigma[1] != 3 {
		t.Fatal("Truncate kept wrong sigmas")
	}
	if sub.Truncate(10) != sub {
		t.Fatal("Truncate beyond rank should return the receiver")
	}
}

func TestCheckDetectsViolations(t *testing.T) {
	s := rng.New(13)
	sub := randomSubspace(s, 10, 2, []float64{2, 1})
	bad := sub.Clone()
	bad.Sigma[1] = -1
	if bad.Check(1e-8) == nil {
		t.Fatal("negative sigma not detected")
	}
	bad2 := sub.Clone()
	bad2.Sigma[0], bad2.Sigma[1] = 1, 2
	if bad2.Check(1e-8) == nil {
		t.Fatal("non-descending sigma not detected")
	}
	bad3 := sub.Clone()
	bad3.Modes.Set(0, 0, bad3.Modes.At(0, 0)+0.5)
	if bad3.Check(1e-8) == nil {
		t.Fatal("non-orthonormal modes not detected")
	}
}

func TestSubspaceFromSnapshots(t *testing.T) {
	// Snapshots varying along two known directions.
	s := rng.New(14)
	m, n := 20, 15
	d1 := make([]float64, m)
	d2 := make([]float64, m)
	d1[0], d2[1] = 1, 1
	snaps := linalg.NewDense(m, n)
	base := s.NormVec(nil, m)
	for j := 0; j < n; j++ {
		c1 := 3 * s.Norm()
		c2 := 1 * s.Norm()
		for i := 0; i < m; i++ {
			snaps.Set(i, j, base[i]+c1*d1[i]+c2*d2[i])
		}
	}
	sub, _ := SubspaceFromSnapshots(snaps, 2)
	if sub.Rank() != 2 {
		t.Fatalf("rank = %d", sub.Rank())
	}
	// Leading mode must align with d1 (the high-variance direction).
	if math.Abs(sub.Modes.At(0, 0)) < 0.9 {
		t.Fatalf("leading mode not aligned with dominant direction: %v", sub.Modes.At(0, 0))
	}
	if err := sub.Check(1e-8); err != nil {
		t.Fatal(err)
	}
}
