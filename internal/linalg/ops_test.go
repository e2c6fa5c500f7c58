package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"esse/internal/rng"
)

// Add returns a + b.
func Add(a, b *Dense) *Dense {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: Add shape mismatch")
	}
	out := NewDense(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
	return out
}

func TestAddSub(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseFrom(2, 2, []float64{4, 3, 2, 1})
	sum := Add(a, b)
	for _, v := range sum.Data {
		if v != 5 {
			t.Fatalf("Add wrong: %v", sum.Data)
		}
	}
}

func TestScale(t *testing.T) {
	s := NewDenseFrom(1, 3, []float64{1, -2, 3})
	ScaleInPlace(-2, s)
	want := NewDenseFrom(1, 3, []float64{-2, 4, -6})
	if !s.EqualApprox(want, 0) {
		t.Fatal("ScaleInPlace wrong")
	}
	ScaleInPlace(0.5, s)
	want2 := NewDenseFrom(1, 3, []float64{-1, 2, -3})
	if !s.EqualApprox(want2, 0) {
		t.Fatal("ScaleInPlace wrong")
	}
}

func TestMulKnown(t *testing.T) {
	a := NewDenseFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseFrom(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := Mul(a, b)
	want := NewDenseFrom(2, 2, []float64{58, 64, 139, 154})
	if !c.EqualApprox(want, 1e-12) {
		t.Fatalf("Mul = %v", c)
	}
}

func TestMulIdentity(t *testing.T) {
	s := rng.New(4)
	a := randomDense(s, 7, 7)
	if !Mul(a, Identity(7)).EqualApprox(a, 1e-12) {
		t.Fatal("A*I != A")
	}
	if !Mul(Identity(7), a).EqualApprox(a, 1e-12) {
		t.Fatal("I*A != A")
	}
}

func TestMulParallelMatchesSerial(t *testing.T) {
	s := rng.New(5)
	// Big enough to trip the parallel path.
	a := randomDense(s, 80, 90)
	b := randomDense(s, 90, 70)
	got := Mul(a, b)
	want := NewDense(80, 70)
	mulRange(want, a, b, 0, 80)
	if !got.EqualApprox(want, 1e-10) {
		t.Fatal("parallel Mul differs from serial reference")
	}
}

func TestMulTA(t *testing.T) {
	s := rng.New(6)
	a := randomDense(s, 10, 4)
	b := randomDense(s, 10, 5)
	got := MulTA(a, b)
	want := Mul(a.T(), b)
	if !got.EqualApprox(want, 1e-11) {
		t.Fatal("MulTA differs from explicit transpose product")
	}
}

func TestMulBT(t *testing.T) {
	s := rng.New(7)
	a := randomDense(s, 6, 8)
	b := randomDense(s, 5, 8)
	got := MulBT(a, b)
	want := Mul(a, b.T())
	if !got.EqualApprox(want, 1e-11) {
		t.Fatal("MulBT differs from explicit transpose product")
	}
}

func TestMatVec(t *testing.T) {
	a := NewDenseFrom(2, 3, []float64{1, 0, -1, 2, 1, 0})
	x := []float64{3, 4, 5}
	y := MatVec(a, x)
	if y[0] != -2 || y[1] != 10 {
		t.Fatalf("MatVec = %v", y)
	}
	yt := MatTVec(a, []float64{1, 1})
	if yt[0] != 3 || yt[1] != 1 || yt[2] != -1 {
		t.Fatalf("MatTVec = %v", yt)
	}
}

func TestDotAxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatalf("Dot = %v", Dot(x, y))
	}
}

func TestNorm2Overflow(t *testing.T) {
	big := 1e200
	x := []float64{big, big}
	got := Norm2(x)
	want := big * math.Sqrt2
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("Norm2 overflow-guard failed: %v vs %v", got, want)
	}
	if Norm2([]float64{0, 0, 0}) != 0 {
		t.Fatal("Norm2 of zeros != 0")
	}
}

func TestVecHelpers(t *testing.T) {
	x := []float64{5, 7}
	y := []float64{2, 3}
	if d := VecSub(x, y); d[0] != 3 || d[1] != 4 {
		t.Fatalf("VecSub = %v", d)
	}
	if a := VecAdd(x, y); a[0] != 7 || a[1] != 10 {
		t.Fatalf("VecAdd = %v", a)
	}
}

func TestOuterAdd(t *testing.T) {
	m := NewDense(2, 3)
	OuterAdd(m, 2, []float64{1, 2}, []float64{3, 4, 5})
	want := NewDenseFrom(2, 3, []float64{6, 8, 10, 12, 16, 20})
	if !m.EqualApprox(want, 0) {
		t.Fatalf("OuterAdd = %v", m)
	}
}

// Property: (A*B)*C == A*(B*C) within round-off.
func TestMulAssociativityProperty(t *testing.T) {
	s := rng.New(8)
	f := func(seed uint16) bool {
		st := s.Split(uint64(seed))
		n := 2 + st.Intn(8)
		a := randomDense(st, n, n)
		b := randomDense(st, n, n)
		c := randomDense(st, n, n)
		left := Mul(Mul(a, b), c)
		right := Mul(a, Mul(b, c))
		return left.EqualApprox(right, 1e-9*(1+left.MaxAbs()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose reverses products: (AB)ᵀ == Bᵀ Aᵀ.
func TestMulTransposeProperty(t *testing.T) {
	s := rng.New(9)
	f := func(seed uint16) bool {
		st := s.Split(uint64(seed))
		m, k, n := 1+st.Intn(6), 1+st.Intn(6), 1+st.Intn(6)
		a := randomDense(st, m, k)
		b := randomDense(st, k, n)
		return Mul(a, b).T().EqualApprox(Mul(b.T(), a.T()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMulSmall(b *testing.B) {
	s := rng.New(1)
	a := randomDense(s, 32, 32)
	c := randomDense(s, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(a, c)
	}
}

func BenchmarkMulLargeParallel(b *testing.B) {
	s := rng.New(1)
	a := randomDense(s, 256, 256)
	c := randomDense(s, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(a, c)
	}
}

// BenchmarkMulTall is the shape of the engine's tall products at the
// paper-scale state (LeftVectors' E = A V S⁻¹, Assimilate's posterior
// rotation): 15 360×128 by 128×128.
func BenchmarkMulTall(b *testing.B) {
	s := rng.New(1)
	a := randomDense(s, 15360, 128)
	c := randomDense(s, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(a, c)
	}
}

// BenchmarkMulTATall is MulTA at the same shape, 15 360×128 by
// 15 360×128: a tall Gram product such as Subspace.Check's EᵀE.
func BenchmarkMulTATall(b *testing.B) {
	s := rng.New(1)
	a := randomDense(s, 15360, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulTA(a, a)
	}
}

// BenchmarkExtendGram is one SVD round of the engine at the paper-scale
// state: eight new anomaly columns of 15 360 rows bordered onto the Gram
// matrix of 120 (SubspaceTracker.Update's ExtendGram).
func BenchmarkExtendGram(b *testing.B) {
	cols := randomDense(rng.New(1), 15360, 128).Columns()
	g := ExtendGram(nil, cols[:120])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtendGram(g, cols)
	}
}

// TestExtendGramMatchesMulTA: extending the Gram matrix of any leading
// block of columns gives MulTA(A, A) bit for bit — with column counts
// that are not a multiple of four, and with zero entries, which MulTA
// skips. Columns is checked on the way, on a row count that is not a
// multiple of its 32-row blocks. The second matrix also holds ±Inf and
// NaNs, in rows without a zero (a zero times Inf is NaN where it is not
// skipped, and the mirrored block skips the other column's zeros). Its
// NaN results compare as NaNs: of two NaN operands MulTA and ExtendGram
// keep different ones.
func TestExtendGramMatchesMulTA(t *testing.T) {
	nonFinite := []float64{math.Inf(1), math.Inf(-1), nanWith(3), nanWith(5)}
	for _, c := range []struct {
		cols      int
		nonFinite bool
		olds      []int
	}{
		{13, false, []int{0, 1, 5, 12, 13}},
		{18, true, []int{0, 1, 4, 5, 9, 17, 18}},
	} {
		a := randomDense(rng.New(65), 549, c.cols)
		for i := 0; i < a.Rows; i += 7 {
			a.Set(i, i%c.cols, 0)
		}
		if c.nonFinite {
			for i := 2; i < a.Rows; i += 5 {
				if i%7 != 0 {
					a.Set(i, (3*i)%c.cols, nonFinite[i%len(nonFinite)])
				}
			}
		}
		cols := a.Columns()
		for j, col := range cols {
			if want := a.Col(nil, j); firstDiff(col, want, true) >= 0 {
				t.Fatalf("Columns: column %d differs from Col", j)
			}
		}
		want := MulTA(a, a)
		for _, old := range c.olds {
			var g *Dense
			if old > 0 {
				head := a.Slice(0, a.Rows, 0, old)
				g = MulTA(head, head)
			}
			if i := firstDiff(ExtendGram(g, cols).Data, want.Data, !c.nonFinite); i >= 0 {
				t.Fatalf("%d columns, from %d: ExtendGram element %d differs from MulTA(A, A)", c.cols, old, i)
			}
		}
	}
}
