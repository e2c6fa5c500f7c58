package linalg

import (
	"fmt"
	"math"
	"testing"

	"esse/internal/rng"
)

// vectorTiles skips the calling test when this CPU has no tile kernels:
// the products then run only the Go loops, their oracle.
func vectorTiles(t *testing.T) {
	t.Helper()
	if mulTiles == nil || gramTile == nil {
		t.Skip("no tile kernels on this CPU: the Go loops are the only body")
	}
}

// withGoLoops runs fn with every kernel swapped for its Go loop.
func withGoLoops(fn func()) {
	ax, mt, gt := axpy, mulTiles, gramTile
	defer func() { axpy, mulTiles, gramTile = ax, mt, gt }()
	axpy, mulTiles, gramTile = axpyGo, nil, nil
	fn()
}

// gramLoopKeepsNaNOrder reports whether this build's compiled gramRow,
// in its four-entry body, keeps the old column's NaN payload in the
// product and the sum's in the sum, as gramTile does: one row with NaN
// in both columns, then a second whose product is another NaN. The race
// detector's build may order either the other way round.
func gramLoopKeepsNaNOrder() bool {
	cols := [][]float64{{nanWith(1), nanWith(4)}}
	for range 4 {
		cols = append(cols, []float64{nanWith(2), nanWith(3)})
	}
	row := make([]float64, 5)
	gramRow(row, cols, cols[0], 0)
	return math.Float64bits(row[1]) == math.Float64bits(nanWith(2))
}

// tileSpecials are the values the tile tests plant: zeros of both
// signs, subnormals, the largest and smallest normals, ±Inf and NaNs
// with distinct payloads.
var tileSpecials = []float64{
	0, math.Copysign(0, -1), 0x1p-1070, -0x1p-1050, 0x1p-1022, math.MaxFloat64,
	math.Inf(1), math.Inf(-1), nanWith(7), nanWith(8), math.Float64frombits(0xfff8000000000009),
}

// specialDense is an r×c matrix of normals with a special value every
// few elements, and row zeroRow (if in range) all zero. finite keeps
// the specials to those whose products and sums stay finite (it turns
// ±Inf, NaN and the largest normal into zeros): over many rows the others
// make nearly every sum NaN or Inf, and a sum that is NaN already hides a
// row added twice or left out.
func specialDense(s *rng.Stream, r, c, zeroRow int, finite bool) *Dense {
	m := randomDense(s, r, c)
	for i := range m.Data {
		if i%3 == 1 {
			v := tileSpecials[s.Intn(len(tileSpecials))]
			if finite && (math.IsInf(v, 0) || math.IsNaN(v) || v == math.MaxFloat64) {
				v = 0
			}
			m.Data[i] = v
		}
	}
	if zeroRow < r {
		clear(m.Row(zeroRow))
	}
	return m
}

// checkBits fails the test at the first element where got and want
// differ in any bit (NaN payloads only if payloads).
func checkBits(t *testing.T, what string, got, want []float64, payloads bool) {
	t.Helper()
	if i := firstDiff(got, want, payloads); i >= 0 {
		t.Fatalf("%s: element %d = %#x, Go loop %#x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
	}
}

// TestMulTilesBitIdentical: Mul and MulTA with the tile kernel give
// every bit the Go loops give, for 0–9 rows of out and 0–17 columns
// (whole tiles, row and column tails, and both), inner dimensions 0, 1,
// odd and even, and beyond MulTA's taRows, with an all-zero row of a,
// and ±0, subnormals and the largest normal in a and b, ±Inf and NaN
// payloads in a, and, in a second b, in b too (where the Go loops run:
// tilesFit). Payloads compare as in TestAxpyKernelBitIdentical.
func TestMulTilesBitIdentical(t *testing.T) {
	vectorTiles(t)
	payloads := goLoopKeepsNaNOrder()
	if !payloads {
		t.Log("this build's Go loop orders NaN operands the other way: NaN results compared as NaNs")
	}
	s := rng.New(48)
	for _, kd := range []int{0, 1, 3, 8, 13} {
		for m := 0; m <= 9; m++ {
			for n := 0; n <= 17; n++ {
				for _, finite := range []bool{true, false} {
					a, b := specialDense(s, m, kd, 2, false), specialDense(s, kd, n, kd, finite)
					at := specialDense(s, kd, m, kd, false)
					var want, wantTA *Dense
					withGoLoops(func() { want, wantTA = Mul(a, b), MulTA(at, b) })
					name := fmt.Sprintf("%dx%d by %dx%d, finite b %v", m, kd, kd, n, finite)
					checkBits(t, "Mul "+name, Mul(a, b).Data, want.Data, payloads)
					checkBits(t, "MulTA "+name, MulTA(at, b).Data, wantTA.Data, payloads)
				}
			}
		}
	}
	// Inner dimensions past one and two blocks of MulTA's kernel, with
	// finite sums, so that a row summed twice or not at all shows.
	for _, kd := range []int{taRows + 1, 2*taRows + 37} {
		at, b := specialDense(s, kd, 9, 5, true), specialDense(s, kd, 17, 3, true)
		var want *Dense
		withGoLoops(func() { want = MulTA(at, b) })
		checkBits(t, fmt.Sprintf("MulTA %dx9 by %dx17", kd, kd), MulTA(at, b).Data, want.Data, payloads)
	}
}

// TestExtendGramTilesBitIdentical: ExtendGram with the tile kernel gives
// every bit its Go loop gives, from 0–9 kept columns to 0–17 in all (four
// new at a time, the new ones after, and the columns beyond the last four),
// over 0–9 rows and past one and two of the kernel's row blocks, with an
// all-zero column and the values of TestMulTilesBitIdentical in every
// column: ±Inf and NaN payloads among them up to 9 rows, the finite ones
// beyond.
func TestExtendGramTilesBitIdentical(t *testing.T) {
	vectorTiles(t)
	payloads := gramLoopKeepsNaNOrder()
	if !payloads {
		t.Log("this build's Go loop orders NaN operands the other way: NaN results compared as NaNs")
	}
	s := rng.New(49)
	for _, rows := range []int{0, 1, 2, 3, 4, 5, 9, gramRows + 3, 2*gramRows + 6} {
		for n := 0; n <= 17; n++ {
			cols := specialDense(s, n, rows, 1, rows > 9).Data
			colSlices := make([][]float64, n)
			for j := range colSlices {
				colSlices[j] = cols[j*rows : (j+1)*rows]
			}
			for old := 0; old <= min(n, 9); old++ {
				var g, want *Dense
				withGoLoops(func() {
					if old > 0 {
						g = ExtendGram(nil, colSlices[:old])
					}
					want = ExtendGram(g, colSlices)
				})
				got := ExtendGram(g, colSlices)
				checkBits(t, fmt.Sprintf("%d rows, %d of %d columns kept", rows, old, n), got.Data, want.Data, payloads)
			}
		}
	}
}

// A fused multiply-add would keep what these products round away: with
// x = 1+2⁻²⁷, −(1+2⁻²⁶) + x·x is +0 when x·x is rounded first and 2⁻⁵⁴
// when it is not.
var (
	fuseX   = 1 + 0x1p-27
	fuseNeg = -(1 + 0x1p-26)
)

func checkZero(t *testing.T, what string, v []float64) {
	t.Helper()
	for i, x := range v {
		if math.Float64bits(x) != 0 {
			t.Fatalf("%s element %d = %g, want +0 (a fused multiply-add gives 2⁻⁵⁴)", what, i, x)
		}
	}
}

// TestMulTilesDoNotFuse: every element of a 5×11 Mul and MulTA — one
// tile, a row tail and a column tail — is −(1+2⁻²⁶) + x·x, which must
// come out +0.
func TestMulTilesDoNotFuse(t *testing.T) {
	vectorTiles(t)
	a, at, b := NewDense(5, 2), NewDense(2, 5), NewDense(2, 11)
	for i := 0; i < 5; i++ {
		a.Set(i, 0, -1)
		a.Set(i, 1, fuseX)
		at.Set(0, i, -1)
		at.Set(1, i, fuseX)
	}
	for j := 0; j < 11; j++ {
		b.Set(0, j, -fuseNeg)
		b.Set(1, j, fuseX)
	}
	checkZero(t, "Mul", Mul(a, b).Data)
	checkZero(t, "MulTA", MulTA(at, b).Data)
}

// TestGramTileDoesNotFuse: the entries of four new columns (−1, x at
// two pairs of rows, zeros between) against five old ones (1+2⁻²⁶, x at
// the same rows) — one in a block of four rows, one in the last rows —
// are −(1+2⁻²⁶) + x·x twice over, which must come out +0.
func TestGramTileDoesNotFuse(t *testing.T) {
	vectorTiles(t)
	var cols [][]float64
	for j := 0; j < 9; j++ {
		c := make([]float64, 10)
		for _, k := range []int{2, 8} {
			c[k], c[k+1] = -fuseNeg, fuseX
			if j >= 5 {
				c[k] = -1
			}
		}
		cols = append(cols, c)
	}
	g := ExtendGram(ExtendGram(nil, cols[:5]), cols)
	for i := 5; i < 9; i++ {
		checkZero(t, fmt.Sprintf("row %d", i), g.Row(i)[:5])
	}
}
