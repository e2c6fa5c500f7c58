package linalg

import (
	"fmt"
	"math"
	"testing"

	"esse/internal/rng"
)

// gradedGram is BᵀB for a random (n+5)×n B whose column j is scaled by
// 10^(−3j/n): a Gram spectrum graded over about six decades, the shape
// an ensemble's Gram matrix has.
func gradedGram(s *rng.Stream, n int) *Dense {
	b := randomDense(s, n+5, n)
	for i := 0; i < b.Rows; i++ {
		row := b.Row(i)
		for j := range row {
			row[j] *= math.Pow(10, -3*float64(j)/float64(n))
		}
	}
	return MulTA(b, b)
}

// canonicalSigns flips each column of v so that its largest-magnitude
// component, the first on a tie, is positive: the rule SymEig applies.
func canonicalSigns(v *Dense) {
	for j := 0; j < v.Cols; j++ {
		big := 0
		for i := 0; i < v.Rows; i++ {
			if math.Abs(v.At(i, j)) > math.Abs(v.At(big, j)) {
				big = i
			}
		}
		if v.At(big, j) < 0 {
			for i := 0; i < v.Rows; i++ {
				v.Set(i, j, -v.At(i, j))
			}
		}
	}
}

func maxAbsDiff(a, b *Dense) float64 {
	d := 0.0
	for i, v := range a.Data {
		d = math.Max(d, math.Abs(v-b.Data[i]))
	}
	return d
}

// TestSymEigMatchesJacobiOracle holds the QL solver to the Jacobi solver
// it replaced: eigenvalues to 1e-12·|λmax|, eigenvectors to 1e-9 after
// canonical signs wherever the eigenvalue is separated from the others
// by more than 1e-6·|λmax|, plus orthonormality and reconstruction.
func TestSymEigMatchesJacobiOracle(t *testing.T) {
	s := rng.New(61)
	cases := []struct {
		name string
		a    *Dense
	}{
		{"identity", Identity(5)},
		{"diagonal with ties", Diag([]float64{3, 1, 3, 2, 1, 0, 3})},
		{"2x2 known", NewDenseFrom(2, 2, []float64{2, 1, 1, 2})},
	}
	for _, n := range []int{1, 2, 3, 8, 40, 128} {
		cases = append(cases, struct {
			name string
			a    *Dense
		}{fmt.Sprintf("graded Gram n=%d", n), gradedGram(s, n)})
	}
	// Rank 7 in 12 columns: five eigenvalues at the rounding level.
	low := MulBT(randomDense(s, 30, 7), randomDense(s, 12, 7))
	cases = append(cases, struct {
		name string
		a    *Dense
	}{"rank-deficient Gram", MulTA(low, low)})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.a.Rows
			got, want := SymEig(tc.a), jacobiSymEig(tc.a)
			canonicalSigns(want.Vectors)
			scale := math.Abs(want.Values[0])
			for i := range want.Values {
				if d := math.Abs(got.Values[i] - want.Values[i]); d > 1e-12*scale {
					t.Fatalf("λ[%d] = %.17g, oracle %.17g (|Δ| = %.3g)", i, got.Values[i], want.Values[i], d)
				}
			}
			for j := 0; j < n; j++ {
				gap := math.Inf(1)
				for i, v := range want.Values {
					if i != j {
						gap = math.Min(gap, math.Abs(v-want.Values[j]))
					}
				}
				if gap <= 1e-6*scale {
					continue
				}
				for i := 0; i < n; i++ {
					if d := math.Abs(got.Vectors.At(i, j) - want.Vectors.At(i, j)); d > 1e-9 {
						t.Fatalf("eigenvector %d, component %d: %.17g, oracle %.17g", j, i, got.Vectors.At(i, j), want.Vectors.At(i, j))
					}
				}
			}
			if d := maxAbsDiff(MulTA(got.Vectors, got.Vectors), Identity(n)); d > 1e-12 {
				t.Fatalf("‖VᵀV − I‖max = %.3g", d)
			}
			rec := Mul(Mul(got.Vectors, Diag(got.Values)), got.Vectors.T())
			if d := maxAbsDiff(rec, tc.a); d > 1e-12*math.Max(scale, 1) {
				t.Fatalf("‖V Λ Vᵀ − A‖max = %.3g", d)
			}
		})
	}
}

// TestSymEigCanonicalSigns pins the sign rule: the largest-magnitude
// component of every eigenvector, the first one on a tie, is positive.
func TestSymEigCanonicalSigns(t *testing.T) {
	a := gradedGram(rng.New(62), 20)
	ScaleInPlace(-1, a) // negate: the vectors are the same, the order is not
	e := SymEig(a)
	want := e.Vectors.Clone()
	canonicalSigns(want)
	if d := maxAbsDiff(e.Vectors, want); d != 0 {
		t.Fatalf("a column of SymEig's vectors breaks the sign rule (max change %.3g)", d)
	}
}

// TestSymEigNonFiniteInput: one NaN or infinite entry, or a QL sweep
// that runs out of iterations, gives NaN values and vectors — no panic
// and no endless loop.
func TestSymEigNonFiniteInput(t *testing.T) {
	allNaN := func(t *testing.T, e *EigSym, n int) {
		t.Helper()
		if len(e.Values) != n || e.Vectors.Rows != n || e.Vectors.Cols != n {
			t.Fatalf("shapes: %d values, %dx%d vectors, want %d", len(e.Values), e.Vectors.Rows, e.Vectors.Cols, n)
		}
		for _, v := range append(append([]float64(nil), e.Values...), e.Vectors.Data...) {
			if !math.IsNaN(v) {
				t.Fatalf("got %v, want every value and vector entry NaN", v)
			}
		}
	}
	const n = 8
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprint(bad), func(t *testing.T) {
			a := gradedGram(rng.New(63), n)
			a.Set(3, 5, bad)
			a.Set(5, 3, bad)
			allNaN(t, SymEig(a), n)
		})
	}
	t.Run("iteration cap", func(t *testing.T) {
		a := gradedGram(rng.New(64), n)
		allNaN(t, symEig(a, 1), n)
		if e := symEig(a, 30*n); math.IsNaN(e.Values[0]) {
			t.Fatal("the default cap does not leave room for a well-conditioned 8×8")
		}
	})
}
