// Package linalg implements the dense linear algebra needed by ESSE:
// matrix arithmetic with goroutine-parallel multiplication, Householder
// QR, Cholesky factorization, a symmetric eigensolver (Householder
// tridiagonalisation + implicit QL), and a Gram-matrix thin SVD for the
// tall ensemble anomaly matrices that dominate ESSE workloads (a
// one-sided Jacobi SVD, its oracle, is in the tests).
//
// The paper offloads these operations to shared-memory LAPACK; this
// package is the stdlib-only replacement. All algorithms are validated
// by property tests (reconstruction, orthogonality, positive
// semi-definiteness) in the package test suite.
package linalg

import (
	"fmt"
	"math"
	"strconv"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewDense returns a zero-initialized r-by-c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col copies column j into dst (allocated if nil) and returns it. It
// panics if j is out of range or a non-nil dst is shorter than Rows.
func (m *Dense) Col(dst []float64, j int) []float64 {
	if j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("linalg: Col index %d out of range for %dx%d", j, m.Rows, m.Cols))
	}
	if dst == nil {
		dst = make([]float64, m.Rows)
	}
	if len(dst) < m.Rows {
		panic(fmt.Sprintf("linalg: Col destination length %d, need %d rows", len(dst), m.Rows))
	}
	dst = dst[:m.Rows]
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.Data[i*m.Cols+j]
	}
	return dst
}

// SetCol writes v into column j. It panics if j is out of range or
// len(v) != Rows.
func (m *Dense) SetCol(j int, v []float64) {
	if j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("linalg: SetCol index %d out of range for %dx%d", j, m.Rows, m.Cols))
	}
	if len(v) != m.Rows {
		panic(fmt.Sprintf("linalg: SetCol length %d does not match %d rows", len(v), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+j] = v[i]
	}
}

// Columns copies the matrix into one slice per column, all in one
// backing array. It goes 32 rows at a time, so every column is written
// in runs and the rows it reads stay in cache; a row at a time writes
// one element to every column per row, which is several times slower
// on an ensemble-sized matrix.
func (m *Dense) Columns() [][]float64 {
	data := make([]float64, len(m.Data))
	cols := make([][]float64, m.Cols)
	for j := range cols {
		cols[j] = data[j*m.Rows : (j+1)*m.Rows]
	}
	const rows = 32
	for lo := 0; lo < m.Rows; lo += rows {
		hi := min(lo+rows, m.Rows)
		for j, col := range cols {
			for i := lo; i < hi; i++ {
				col[i] = m.Data[i*m.Cols+j]
			}
		}
	}
	return cols
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.Data))
	copy(d, m.Data)
	return &Dense{Rows: m.Rows, Cols: m.Cols, Data: d}
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Zero resets every element to zero.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Slice returns a copy of the submatrix rows [r0,r1) x cols [c0,c1).
func (m *Dense) Slice(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || r1 > m.Rows || c0 < 0 || c1 > m.Cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("linalg: Slice [%d:%d, %d:%d) out of range for %dx%d",
			r0, r1, c0, c1, m.Rows, m.Cols))
	}
	s := NewDense(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(s.Row(i-r0), m.Row(i)[c0:c1])
	}
	return s
}

// MaxAbs returns the largest absolute element value.
func (m *Dense) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Trace returns the sum of diagonal elements of a square matrix.
func (m *Dense) Trace() float64 {
	if m.Rows != m.Cols {
		panic("linalg: Trace of non-square matrix")
	}
	t := 0.0
	for i := 0; i < m.Rows; i++ {
		t += m.Data[i*m.Cols+i]
	}
	return t
}

// EqualApprox reports whether m and b agree element-wise within tol.
func (m *Dense) EqualApprox(b *Dense, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// IsFinite reports whether every element is finite.
func (m *Dense) IsFinite() bool {
	for _, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging.
func (m *Dense) String() string {
	if m.Rows*m.Cols > 400 {
		return fmt.Sprintf("Dense(%dx%d)", m.Rows, m.Cols)
	}
	// "% .4e " renders 12 bytes per element; build into one buffer
	// instead of concatenating per cell.
	buf := make([]byte, 0, m.Rows*(12*m.Cols+1))
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			v := m.At(i, j)
			if !math.Signbit(v) {
				buf = append(buf, ' ')
			}
			buf = strconv.AppendFloat(buf, v, 'e', 4, 64)
			buf = append(buf, ' ')
		}
		buf = append(buf, '\n')
	}
	return string(buf)
}
