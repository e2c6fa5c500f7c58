package linalg

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"esse/internal/rng"
)

// Diag returns a square matrix with d on the diagonal.
func Diag(d []float64) *Dense {
	n := len(d)
	m := NewDense(n, n)
	for i, v := range d {
		m.Data[i*n+i] = v
	}
	return m
}

// FrobNorm returns the Frobenius norm.
func (m *Dense) FrobNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

func randomDense(s *rng.Stream, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = s.Norm()
	}
	return m
}

func TestNewDenseShape(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
}

func TestNewDenseFromPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDenseFrom(2, 2, []float64{1, 2, 3})
}

func TestAtSet(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 5.5)
	if m.At(1, 2) != 5.5 {
		t.Fatal("At/Set roundtrip failed")
	}
	if m.Data[1*3+2] != 5.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(4)[%d,%d] = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestDiag(t *testing.T) {
	d := Diag([]float64{1, 2, 3})
	if d.At(0, 0) != 1 || d.At(1, 1) != 2 || d.At(2, 2) != 3 || d.At(0, 1) != 0 {
		t.Fatal("Diag misplaced values")
	}
}

func TestTranspose(t *testing.T) {
	s := rng.New(1)
	m := randomDense(s, 5, 3)
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 5 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatal("transpose value mismatch")
			}
		}
	}
	if !m.T().T().EqualApprox(m, 0) {
		t.Fatal("double transpose is not identity")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewDense(2, 2)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestColSetCol(t *testing.T) {
	s := rng.New(2)
	m := randomDense(s, 4, 3)
	col := m.Col(nil, 1)
	for i := 0; i < 4; i++ {
		if col[i] != m.At(i, 1) {
			t.Fatal("Col returned wrong values")
		}
	}
	newCol := []float64{9, 8, 7, 6}
	m.SetCol(2, newCol)
	for i := 0; i < 4; i++ {
		if m.At(i, 2) != newCol[i] {
			t.Fatal("SetCol failed")
		}
	}
}

func TestSlice(t *testing.T) {
	s := rng.New(3)
	m := randomDense(s, 6, 6)
	sub := m.Slice(1, 4, 2, 5)
	if sub.Rows != 3 || sub.Cols != 3 {
		t.Fatalf("Slice shape %dx%d", sub.Rows, sub.Cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if sub.At(i, j) != m.At(i+1, j+2) {
				t.Fatal("Slice content mismatch")
			}
		}
	}
	sub.Set(0, 0, 99)
	if m.At(1, 2) == 99 {
		t.Fatal("Slice must copy, not alias")
	}
}

func TestTraceAndNorms(t *testing.T) {
	m := NewDenseFrom(2, 2, []float64{3, 0, 0, -4})
	if m.Trace() != -1 {
		t.Fatalf("Trace = %v", m.Trace())
	}
	if got := m.FrobNorm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("FrobNorm = %v", got)
	}
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
}

func TestIsFinite(t *testing.T) {
	m := NewDense(2, 2)
	if !m.IsFinite() {
		t.Fatal("zero matrix should be finite")
	}
	m.Set(0, 1, math.NaN())
	if m.IsFinite() {
		t.Fatal("NaN not detected")
	}
	m.Set(0, 1, math.Inf(1))
	if m.IsFinite() {
		t.Fatal("Inf not detected")
	}
}

func TestFillZero(t *testing.T) {
	m := NewDenseFrom(2, 2, []float64{1, 2, 3, 4})
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

// wantPanic runs f and asserts it panics with a message containing
// op, so every shape-validation path names the operation that failed.
func wantPanic(t *testing.T, op string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: expected panic", op)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, op) {
			t.Fatalf("%s: panic %v does not name the op", op, r)
		}
	}()
	f()
}

func TestColRejectsBadIndex(t *testing.T) {
	m := NewDense(3, 2)
	wantPanic(t, "Col", func() { m.Col(nil, 2) })
	wantPanic(t, "Col", func() { m.Col(nil, -1) })
}

func TestColRejectsShortDst(t *testing.T) {
	m := NewDense(3, 2)
	wantPanic(t, "Col", func() { m.Col(make([]float64, 2), 0) })
}

func TestColAcceptsLongDst(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 7)
	m.Set(1, 1, 8)
	got := m.Col(make([]float64, 5), 1)
	if len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("Col with oversized dst = %v", got)
	}
}

func TestSetColRejectsBadIndex(t *testing.T) {
	m := NewDense(3, 2)
	wantPanic(t, "SetCol", func() { m.SetCol(2, make([]float64, 3)) })
	wantPanic(t, "SetCol", func() { m.SetCol(-1, make([]float64, 3)) })
}

func TestSetColRejectsBadLength(t *testing.T) {
	m := NewDense(3, 2)
	wantPanic(t, "SetCol", func() { m.SetCol(0, make([]float64, 2)) })
	wantPanic(t, "SetCol", func() { m.SetCol(0, make([]float64, 4)) })
}

func TestSliceRejectsBadBounds(t *testing.T) {
	m := NewDense(4, 3)
	wantPanic(t, "Slice", func() { m.Slice(-1, 2, 0, 3) })
	wantPanic(t, "Slice", func() { m.Slice(0, 5, 0, 3) })
	wantPanic(t, "Slice", func() { m.Slice(0, 4, 0, 4) })
	wantPanic(t, "Slice", func() { m.Slice(2, 1, 0, 3) })
	wantPanic(t, "Slice", func() { m.Slice(0, 4, 2, 1) })
}

// NewDenseFrom wraps data (row-major) without copying. It panics if
// len(data) != r*c.
func NewDenseFrom(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("linalg: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}
