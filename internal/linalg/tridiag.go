package linalg

import "fmt"

// SolveTridiagonalInto solves a tridiagonal system with the Thomas
// algorithm: sub/diag/super are the three bands (sub[0] and
// super[n-1] are ignored). It modifies no inputs and returns an error if
// a pivot vanishes (no pivoting is performed — callers must supply
// diagonally dominant systems, as implicit diffusion steps do). The
// caller supplies the solution vector x and scratch vectors c, d (all
// len n, none aliasing the bands or b). It allocates nothing, so
// per-column implicit-diffusion sweeps can reuse one set of buffers.
func SolveTridiagonalInto(x, c, d, sub, diag, super, b []float64) error {
	n := len(diag)
	if len(sub) != n || len(super) != n || len(b) != n || len(x) != n || len(c) != n || len(d) != n {
		return fmt.Errorf("linalg: tridiagonal band lengths disagree")
	}
	if diag[0] == 0 {
		return fmt.Errorf("linalg: zero pivot at row 0")
	}
	c[0] = super[0] / diag[0]
	d[0] = b[0] / diag[0]
	for i := 1; i < n; i++ {
		den := diag[i] - sub[i]*c[i-1]
		if den == 0 {
			return fmt.Errorf("linalg: zero pivot at row %d", i)
		}
		if i < n-1 {
			c[i] = super[i] / den
		}
		d[i] = (b[i] - sub[i]*d[i-1]) / den
	}
	x[n-1] = d[n-1]
	for i := n - 2; i >= 0; i-- {
		x[i] = d[i] - c[i]*x[i+1]
	}
	return nil
}
