package linalg

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"esse/internal/rng"
)

func TestSymEigDiagonal(t *testing.T) {
	a := Diag([]float64{3, 1, 2})
	e := SymEig(a)
	want := []float64{3, 2, 1}
	for i, v := range want {
		if math.Abs(e.Values[i]-v) > 1e-12 {
			t.Fatalf("eigenvalues = %v, want %v", e.Values, want)
		}
	}
}

func TestSymEigKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := NewDenseFrom(2, 2, []float64{2, 1, 1, 2})
	e := SymEig(a)
	if math.Abs(e.Values[0]-3) > 1e-10 || math.Abs(e.Values[1]-1) > 1e-10 {
		t.Fatalf("eigenvalues = %v", e.Values)
	}
}

func TestSymEigReconstruction(t *testing.T) {
	s := rng.New(20)
	b := randomDense(s, 8, 8)
	a := Add(b, b.T()) // symmetric
	e := SymEig(a)
	rec := Mul(Mul(e.Vectors, Diag(e.Values)), e.Vectors.T())
	if !rec.EqualApprox(a, 1e-9) {
		t.Fatal("V Λ Vᵀ != A")
	}
}

func TestSymEigOrthogonalVectors(t *testing.T) {
	s := rng.New(21)
	b := randomDense(s, 10, 10)
	a := Add(b, b.T())
	e := SymEig(a)
	if !MulTA(e.Vectors, e.Vectors).EqualApprox(Identity(10), 1e-9) {
		t.Fatal("eigenvector matrix not orthogonal")
	}
}

func TestSymEigSortedDescending(t *testing.T) {
	s := rng.New(22)
	b := randomDense(s, 12, 12)
	a := Add(b, b.T())
	e := SymEig(a)
	for i := 1; i < len(e.Values); i++ {
		if e.Values[i] > e.Values[i-1]+1e-12 {
			t.Fatalf("eigenvalues not sorted: %v", e.Values)
		}
	}
}

func TestSymEigPSDOfGram(t *testing.T) {
	// Gram matrices are PSD: all eigenvalues >= 0 (within round-off).
	s := rng.New(23)
	f := func(seed uint16) bool {
		st := s.Split(uint64(seed))
		m, n := 2+st.Intn(8), 1+st.Intn(6)
		a := randomDense(st, m, n)
		e := SymEig(MulTA(a, a))
		for _, v := range e.Values {
			if v < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSVDIdentity(t *testing.T) {
	f := SVD(Identity(4))
	for _, s := range f.S {
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("singular values of I = %v", f.S)
		}
	}
}

func TestSVDKnownRank1(t *testing.T) {
	// A = u vᵀ with |u|=5, |v|=5 has one singular value 25 (wait: σ = |u||v|).
	u := []float64{3, 4}
	v := []float64{0, 5}
	a := NewDense(2, 2)
	OuterAdd(a, 1, u, v)
	f := SVD(a)
	if math.Abs(f.S[0]-25) > 1e-10 {
		t.Fatalf("rank-1 σ₀ = %v, want 25", f.S[0])
	}
	if f.S[1] > 1e-10 {
		t.Fatalf("rank-1 σ₁ = %v, want 0", f.S[1])
	}
}

func TestSVDReconstructionTall(t *testing.T) {
	s := rng.New(24)
	a := randomDense(s, 20, 6)
	f := SVD(a)
	if !f.Reconstruct().EqualApprox(a, 1e-9) {
		t.Fatal("SVD does not reconstruct tall A")
	}
}

func TestSVDReconstructionWide(t *testing.T) {
	s := rng.New(25)
	a := randomDense(s, 5, 17)
	f := SVD(a)
	if !f.Reconstruct().EqualApprox(a, 1e-9) {
		t.Fatal("SVD does not reconstruct wide A")
	}
}

func TestSVDOrthogonality(t *testing.T) {
	s := rng.New(26)
	a := randomDense(s, 15, 7)
	f := SVD(a)
	if !MulTA(f.U, f.U).EqualApprox(Identity(7), 1e-9) {
		t.Fatal("UᵀU != I")
	}
	if !MulTA(f.V, f.V).EqualApprox(Identity(7), 1e-9) {
		t.Fatal("VᵀV != I")
	}
}

func TestSVDSingularValuesSorted(t *testing.T) {
	s := rng.New(27)
	a := randomDense(s, 9, 9)
	f := SVD(a)
	for i := 1; i < len(f.S); i++ {
		if f.S[i] > f.S[i-1]+1e-12 {
			t.Fatalf("singular values not sorted: %v", f.S)
		}
		if f.S[i] < 0 {
			t.Fatalf("negative singular value: %v", f.S)
		}
	}
}

func TestSVDProperty(t *testing.T) {
	s := rng.New(28)
	f := func(seed uint16) bool {
		st := s.Split(uint64(seed))
		m, n := 1+st.Intn(10), 1+st.Intn(10)
		a := randomDense(st, m, n)
		svd := SVD(a)
		return svd.Reconstruct().EqualApprox(a, 1e-8*(1+a.MaxAbs()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSVDFrobeniusInvariant(t *testing.T) {
	// ||A||_F² == Σ σᵢ².
	s := rng.New(29)
	a := randomDense(s, 12, 5)
	f := SVD(a)
	sum := 0.0
	for _, sv := range f.S {
		sum += sv * sv
	}
	fr := a.FrobNorm()
	if math.Abs(sum-fr*fr) > 1e-9*(1+fr*fr) {
		t.Fatalf("Σσ² = %v, ||A||²= %v", sum, fr*fr)
	}
}

func TestThinSVDGramMatchesJacobi(t *testing.T) {
	s := rng.New(30)
	a := randomDense(s, 300, 8) // tall, ensemble-shaped
	gj := SVD(a)
	gr := ThinSVDGram(a, 8)
	for i := range gr.S {
		if math.Abs(gr.S[i]-gj.S[i]) > 1e-7*(1+gj.S[0]) {
			t.Fatalf("Gram σ[%d]=%v, Jacobi σ[%d]=%v", i, gr.S[i], i, gj.S[i])
		}
	}
	if !gr.Reconstruct().EqualApprox(a, 1e-7*(1+a.MaxAbs())) {
		t.Fatal("Gram thin SVD does not reconstruct A")
	}
}

func TestThinSVDGramTruncation(t *testing.T) {
	s := rng.New(31)
	a := randomDense(s, 100, 10)
	f := ThinSVDGram(a, 4)
	if len(f.S) != 4 || f.U.Cols != 4 || f.V.Cols != 4 {
		t.Fatalf("truncated shapes: k=%d U=%dx%d V=%dx%d", len(f.S), f.U.Rows, f.U.Cols, f.V.Rows, f.V.Cols)
	}
	full := SVD(a)
	for i := 0; i < 4; i++ {
		if math.Abs(f.S[i]-full.S[i]) > 1e-7*(1+full.S[0]) {
			t.Fatalf("truncated σ[%d] mismatch: %v vs %v", i, f.S[i], full.S[i])
		}
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	a := NewDense(5, 3)
	f := SVD(a)
	for _, s := range f.S {
		if s != 0 {
			t.Fatalf("zero matrix has σ = %v", f.S)
		}
	}
}

func BenchmarkSVDEnsembleShape(b *testing.B) {
	// Typical ESSE shape at test scale: state 2000, ensemble 50.
	s := rng.New(1)
	a := randomDense(s, 2000, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ThinSVDGram(a, 50)
	}
}

func BenchmarkSymEig32(b *testing.B) {
	s := rng.New(1)
	m := randomDense(s, 32, 32)
	a := Add(m, m.T())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SymEig(a)
	}
}

// The one-sided Jacobi SVD below is the test oracle of the linked
// ThinSVDGram: slow, but accurate to the last singular value.

// SVD computes a thin SVD of a, dispatching on shape: for tall matrices
// (Rows >= Cols) it runs one-sided Jacobi directly; for wide matrices it
// factors the transpose and swaps U and V.
//
// ESSE anomaly matrices are extremely tall (state dimension ≫ ensemble
// size), which is the cheap case: the Jacobi sweeps operate on the n
// columns only.
func SVD(a *Dense) *SVDFactors {
	if a.Rows >= a.Cols {
		return oneSidedJacobi(a)
	}
	f := oneSidedJacobi(a.T())
	return &SVDFactors{U: f.V, S: f.S, V: f.U}
}

// oneSidedJacobi computes the thin SVD of a tall matrix (m >= n) by
// orthogonalizing its columns with Jacobi plane rotations. V accumulates
// the rotations; on convergence the column norms are the singular values
// and the normalized columns form U.
func oneSidedJacobi(a *Dense) *SVDFactors {
	m, n := a.Rows, a.Cols
	u := a.Clone()
	v := Identity(n)

	const maxSweeps = 60
	tol := 1e-14
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				// Compute the 2x2 Gram entries for columns p and q.
				alpha, beta, gamma := 0.0, 0.0, 0.0
				for i := 0; i < m; i++ {
					up := u.Data[i*n+p]
					uq := u.Data[i*n+q]
					alpha += up * up
					beta += uq * uq
					gamma += up * uq
				}
				if math.Abs(gamma) <= tol*math.Sqrt(alpha*beta) || gamma == 0 {
					continue
				}
				rotated = true
				// Rotation that annihilates the off-diagonal Gram entry.
				zeta := (beta - alpha) / (2 * gamma)
				var t float64
				if zeta >= 0 {
					t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
				} else {
					t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				for i := 0; i < m; i++ {
					up := u.Data[i*n+p]
					uq := u.Data[i*n+q]
					u.Data[i*n+p] = c*up - s*uq
					u.Data[i*n+q] = s*up + c*uq
				}
				for i := 0; i < n; i++ {
					vp := v.Data[i*n+p]
					vq := v.Data[i*n+q]
					v.Data[i*n+p] = c*vp - s*vq
					v.Data[i*n+q] = s*vp + c*vq
				}
			}
		}
		if !rotated {
			break
		}
	}

	// Extract singular values (column norms) and normalize U.
	sv := make([]float64, n)
	col := make([]float64, m)
	for j := 0; j < n; j++ {
		u.Col(col, j)
		sv[j] = Norm2(col)
		if sv[j] > 0 {
			inv := 1 / sv[j]
			for i := 0; i < m; i++ {
				u.Data[i*n+j] *= inv
			}
		}
	}
	// Sort by descending singular value.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return sv[idx[i]] > sv[idx[j]] })
	sortedS := make([]float64, n)
	sortedU := NewDense(m, n)
	sortedV := NewDense(n, n)
	ucol := make([]float64, m)
	vcol := make([]float64, n)
	for out, in := range idx {
		sortedS[out] = sv[in]
		u.Col(ucol, in)
		sortedU.SetCol(out, ucol)
		v.Col(vcol, in)
		sortedV.SetCol(out, vcol)
	}
	return &SVDFactors{U: sortedU, S: sortedS, V: sortedV}
}

// Reconstruct returns U diag(S) Vᵀ.
func (f *SVDFactors) Reconstruct() *Dense {
	k := len(f.S)
	us := NewDense(f.U.Rows, k)
	for i := 0; i < f.U.Rows; i++ {
		for j := 0; j < k; j++ {
			us.Set(i, j, f.U.At(i, j)*f.S[j])
		}
	}
	return MulBT(us, f.V)
}
