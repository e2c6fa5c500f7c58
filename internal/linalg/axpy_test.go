package linalg

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"esse/internal/rng"
)

// vectorAxpy returns axpy when this CPU chose a vector body for it, and
// skips the calling test when axpy is the Go loop, its oracle.
func vectorAxpy(t *testing.T) func([]float64, float64, []float64) {
	t.Helper()
	if reflect.ValueOf(axpy).Pointer() == reflect.ValueOf(axpyGo).Pointer() {
		t.Skip("axpy is the Go loop on this CPU: no vector body to check")
	}
	return axpy
}

// firstDiff reports the first index where got and want differ in any
// bit, or -1: the sign of zero counts, and so does a NaN's payload
// unless payloads is false.
func firstDiff(got, want []float64, payloads bool) int {
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && (payloads || !math.IsNaN(g) || !math.IsNaN(w)) {
			return i
		}
	}
	return -1
}

func nanWith(payload uint64) float64 { return math.Float64frombits(0x7ff8000000000000 | payload) }

// goLoopKeepsNaNOrder reports whether this build's compiled Go loop,
// given NaN in a, x and y, keeps x's payload, as the kernel does: x·a
// keeps the first operand's, then product + y the product's. That is
// the optimised build's order. The race detector's instrumented build
// orders the scalar add the other way round, and keeps y's.
func goLoopKeepsNaNOrder() bool {
	x, y := make([]float64, 9), make([]float64, 9)
	for i := range x {
		x[i], y[i] = nanWith(1), nanWith(2)
	}
	axpyGo(y, nanWith(3), x)
	return firstDiff(y, x, true) < 0
}

// TestAxpyKernelBitIdentical: the vector body gives every bit the Go
// loop gives, at every length 0–67 (the eight-wide body, the tail and
// both), on sub-slices that start at odd elements, for a ∈ {0, −0, 1,
// −2.5, a subnormal, NaN}, with −0 and NaN in y and ±Inf, NaN payloads
// and subnormals in x. Where two operands are NaN, the compiled
// y += a*x keeps x's payload in the product and the product's in the
// sum, and so must the kernel; in a build whose Go loop orders them
// otherwise (goLoopKeepsNaNOrder), two NaNs compare as NaNs. The element
// after the sub-slice must be left alone.
func TestAxpyKernelBitIdentical(t *testing.T) {
	kernel := vectorAxpy(t)
	payloads := goLoopKeepsNaNOrder()
	if !payloads {
		t.Log("this build's Go loop keeps y's NaN payload: NaN results compared as NaNs")
	}
	xSpecial := []float64{
		math.Inf(1), math.Inf(-1), nanWith(1), nanWith(2), math.Float64frombits(0x7ff0000000000003),
		math.Float64frombits(0xfff8000000000004), 0x1p-1050, -0x1p-1070, 0x1p-1022,
	}
	s := rng.New(46)
	for _, a := range []float64{0, math.Copysign(0, -1), 1, -2.5, 0x1p-1040, nanWith(0x66)} {
		for n := 0; n <= 67; n++ {
			for _, off := range []int{0, 1, 3} {
				x := make([]float64, off+n)
				y := make([]float64, off+n+1)
				for i := range x {
					x[i] = s.Norm()
					if i%5 == 2 {
						x[i] = xSpecial[(i/5+n)%len(xSpecial)]
					}
				}
				for i := range y {
					switch i % 7 {
					case 3:
						y[i] = math.Copysign(0, -1)
					case 5:
						y[i] = nanWith(0x55)
					default:
						y[i] = s.Norm()
					}
				}
				want := append([]float64(nil), y...)
				axpyGo(want[off:off+n], a, x[off:])
				got := append([]float64(nil), y...)
				kernel(got[off:off+n], a, x[off:])
				if i := firstDiff(got, want, payloads); i >= 0 {
					t.Fatalf("a=%v n=%d off=%d: y[%d] = %#x, Go loop %#x",
						a, n, off, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestAxpyKernelDoesNotFuse: with a = x = 1+2⁻²⁷ and y = −(1+2⁻²⁶), the
// product rounded then added is exactly 0; a fused multiply-add would
// keep 2⁻⁵⁴. Eleven elements run both the vector body and the tail.
func TestAxpyKernelDoesNotFuse(t *testing.T) {
	kernel := vectorAxpy(t)
	a := 1 + 0x1p-27
	x := make([]float64, 11)
	y := make([]float64, 11)
	for i := range x {
		x[i], y[i] = a, -(1 + 0x1p-26)
	}
	kernel(y, a, x)
	for i, v := range y {
		if math.Float64bits(v) != 0 {
			t.Fatalf("y[%d] = %g, want +0 (a fused multiply-add gives 2⁻⁵⁴)", i, v)
		}
	}
}

// TestTallProductsMatchGoLoop: a Mul above parallelThreshold, on three
// workers (uneven row blocks, so the disjoint partition mulInto's
// stores rely on is exercised), and a MulTA, both with zeros in a, are
// bit-equal to mulRange and MulTA driven by the Go loop. It runs on
// every CPU: without a vector body it still holds the partition.
func TestTallProductsMatchGoLoop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	s := rng.New(47)
	a, b, c := randomDense(s, 301, 64), randomDense(s, 64, 45), randomDense(s, 301, 37)
	for i := 0; i < len(a.Data); i += 3 {
		a.Data[i] = 0
	}
	if a.Rows*a.Cols*b.Cols < parallelThreshold {
		t.Fatal("product below parallelThreshold: the parallel path is not exercised")
	}
	got, gotTA := Mul(a, b), MulTA(a, c)
	defer func(kernel func([]float64, float64, []float64)) { axpy = kernel }(axpy)
	axpy = axpyGo
	want := NewDense(a.Rows, b.Cols)
	mulRange(want, a, b, 0, a.Rows)
	wantTA := MulTA(a, c)
	if i := firstDiff(got.Data, want.Data, true); i >= 0 {
		t.Fatalf("Mul element %d: %#x, Go loop %#x", i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
	}
	if i := firstDiff(gotTA.Data, wantTA.Data, true); i >= 0 {
		t.Fatalf("MulTA element %d: %#x, Go loop %#x", i, math.Float64bits(gotTA.Data[i]), math.Float64bits(wantTA.Data[i]))
	}
}
