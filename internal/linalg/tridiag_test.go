package linalg

import "testing"

// SolveTridiagonal solves a tridiagonal system with the Thomas
// algorithm: sub/diag/super are the three bands (sub[0] and
// super[n-1] are ignored). It modifies no inputs and returns an error if
// a pivot vanishes (no pivoting is performed — callers must supply
// diagonally dominant systems, as implicit diffusion steps do). No
// binary calls it: it is SolveTridiagonalInto with fresh buffers, for
// the tests.
func SolveTridiagonal(sub, diag, super, b []float64) ([]float64, error) {
	n := len(diag)
	x := make([]float64, n)
	c := make([]float64, n)
	d := make([]float64, n)
	if err := SolveTridiagonalInto(x, c, d, sub, diag, super, b); err != nil {
		return nil, err
	}
	return x, nil
}

func TestSolveTridiagonal(t *testing.T) {
	// -1 2 -1 Laplacian-style system, diagonally dominant.
	n := 8
	sub := make([]float64, n)
	diag := make([]float64, n)
	super := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		sub[i], diag[i], super[i] = -1, 3, -1
		b[i] = float64(i + 1)
	}
	x, err := SolveTridiagonal(sub, diag, super, b)
	if err != nil {
		t.Fatal(err)
	}
	// Verify by residual against the explicit matrix.
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 3)
		if i > 0 {
			a.Set(i, i-1, -1)
		}
		if i < n-1 {
			a.Set(i, i+1, -1)
		}
	}
	if res := Norm2(VecSub(MatVec(a, x), b)); res > 1e-10 {
		t.Fatalf("tridiagonal residual %v", res)
	}
}

func TestSolveTridiagonalErrors(t *testing.T) {
	if _, err := SolveTridiagonal([]float64{1}, []float64{1, 2}, []float64{1, 2}, []float64{1, 2}); err == nil {
		t.Fatal("band length mismatch accepted")
	}
	if _, err := SolveTridiagonal([]float64{0, 0}, []float64{0, 1}, []float64{0, 0}, []float64{1, 1}); err == nil {
		t.Fatal("zero pivot accepted")
	}
	// diag[1] - sub[1]*super[0]/diag[0] = 0: the pivot vanishes at row 1.
	if _, err := SolveTridiagonal([]float64{0, 1}, []float64{1, 1}, []float64{1, 0}, []float64{1, 1}); err == nil {
		t.Fatal("zero pivot at row 1 accepted")
	}
}
