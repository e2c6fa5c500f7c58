package linalg

import (
	"cmp"
	"math"
	"slices"
)

// EigSym holds the spectral decomposition A = V diag(Values) Vᵀ of a
// symmetric matrix, with eigenvalues sorted in descending order and the
// columns of Vectors holding the corresponding orthonormal eigenvectors.
type EigSym struct {
	Values  []float64
	Vectors *Dense
}

// SymEig computes the eigendecomposition of a symmetric matrix by
// Householder reduction to tridiagonal form followed by the implicit QL
// method (EISPACK tred2/tql2, as in JAMA). The input must be square; the
// matrix is symmetrized internally to guard against round-off asymmetry.
//
// Equal eigenvalues keep their order from the QL sweep, and each
// eigenvector's sign is fixed so that its largest-magnitude component
// (the first one, on a tie) is positive. A non-finite input, or a QL
// iteration that fails to converge within 30·n steps, gives NaN values
// and vectors.
func SymEig(a *Dense) *EigSym {
	return symEig(a, 30*a.Rows)
}

// symEig is SymEig with the QL iteration cap as a parameter.
func symEig(a *Dense, maxIter int) *EigSym {
	n := a.Rows
	if a.Cols != n {
		panic("linalg: SymEig requires a square matrix")
	}
	// z holds the eigenvectors transposed — eigenvector j is row j — so
	// both the reduction and every QL rotation walk contiguous rows.
	z := make([]float64, n*n)
	finite := true
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := 0.5 * (a.Data[i*n+j] + a.Data[j*n+i])
			z[i*n+j] = v
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
	}
	de := make([]float64, 2*n)
	d, e := de[:n], de[n:]
	out := &EigSym{Values: make([]float64, n), Vectors: NewDense(n, n)}
	if n == 0 {
		return out
	}
	converged := false
	if finite {
		tred2(z, d, e, n)
		converged = tql2(z, d, e, n, maxIter)
	}
	if !converged {
		for i := range out.Values {
			out.Values[i] = math.NaN()
		}
		for i := range out.Vectors.Data {
			out.Vectors.Data[i] = math.NaN()
		}
		return out
	}

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(p, q int) int { return cmp.Compare(d[q], d[p]) })
	for col, in := range idx {
		out.Values[col] = d[in]
		vec := z[in*n : (in+1)*n]
		big := 0
		for k, v := range vec {
			if math.Abs(v) > math.Abs(vec[big]) {
				big = k
			}
		}
		sign := 1.0
		if vec[big] < 0 {
			sign = -1
		}
		for k, v := range vec {
			out.Vectors.Data[k*n+col] = sign * v
		}
	}
	return out
}

// tred2 reduces the symmetric matrix in z to tridiagonal form by
// Householder similarity transformations, leaving the diagonal in d,
// the subdiagonal in e[1:] and the accumulated transformation in z,
// transposed (JAMA's V[k][j] is z[j*n+k] here).
func tred2(z, d, e []float64, n int) {
	copy(d, z[(n-1)*n:]) // the last column, as z is symmetric
	for i := n - 1; i > 0; i-- {
		// Scale to avoid under/overflow.
		scale, h := 0.0, 0.0
		for _, v := range d[:i] {
			scale += math.Abs(v)
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = z[j*n+i-1]
				z[j*n+i] = 0
				z[i*n+j] = 0
			}
			d[i] = h
			continue
		}
		// Generate the Householder vector.
		for k := range d[:i] {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		clear(e[:i])
		// Apply the similarity transformation to the remaining rows.
		for j := 0; j < i; j++ {
			zj := z[j*n : j*n+i]
			f = d[j]
			z[i*n+j] = f
			g = e[j] + zj[j]*f
			for k := j + 1; k < i; k++ {
				g += zj[k] * d[k]
				e[k] += zj[k] * f
			}
			e[j] = g
		}
		f = 0
		for j := range e[:i] {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := range e[:i] {
			e[j] -= hh * d[j]
		}
		for j := 0; j < i; j++ {
			zj := z[j*n : j*n+i+1]
			f, g = d[j], e[j]
			for k := j; k < i; k++ {
				zj[k] -= f*e[k] + g*d[k]
			}
			d[j] = zj[i-1]
			zj[i] = 0
		}
		d[i] = h
	}

	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		z[i*n+n-1] = z[i*n+i]
		z[i*n+i] = 1
		zi1 := z[(i+1)*n : (i+1)*n+i+1]
		if h := d[i+1]; h != 0 {
			for k, v := range zi1 {
				d[k] = v / h
			}
			for j := 0; j <= i; j++ {
				zj := z[j*n : j*n+i+1]
				g := 0.0
				for k, v := range zi1 {
					g += v * zj[k]
				}
				for k := range zj {
					zj[k] -= g * d[k]
				}
			}
		}
		clear(zi1)
	}
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
		z[j*n+n-1] = 0
	}
	z[n*n-1] = 1
	e[0] = 0
}

// tql2 diagonalises the tridiagonal matrix (d, e) left by tred2 with the
// implicit QL method, applying each rotation to two rows of z, so that
// d holds the eigenvalues and row j of z the eigenvector of d[j]. It
// reports false if the iterations, counted over all eigenvalues, exceed
// maxIter.
func tql2(z, d, e []float64, n, maxIter int) bool {
	copy(e, e[1:])
	e[n-1] = 0
	const eps = 0x1p-52
	f, tst1 := 0.0, 0.0
	iter := 0
	for l := 0; l < n; l++ {
		// Find a small subdiagonal element.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		// m stays put: QL steps on the block l..m until e[l] is negligible.
		for m > l {
			if iter++; iter > maxIter {
				return false
			}
			// Implicit shift.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h

			// Implicit QL transformation.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			s, s2 := 0.0, 0.0
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				zi, zi1 := z[i*n:(i+1)*n], z[(i+1)*n:(i+2)*n]
				for k, v := range zi {
					h = zi1[k]
					zi1[k] = s*v + c*h
					zi[k] = c*v - s*h
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if !(math.Abs(e[l]) > eps*tst1) {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
	return true
}
