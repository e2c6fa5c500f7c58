package linalg

import (
	"testing"
	"testing/quick"

	"esse/internal/rng"
)

func TestQRReconstruction(t *testing.T) {
	s := rng.New(10)
	a := randomDense(s, 8, 5)
	f := QR(a)
	if !Mul(f.Q, f.R).EqualApprox(a, 1e-10) {
		t.Fatal("QR does not reconstruct A")
	}
}

func TestQROrthonormalColumns(t *testing.T) {
	s := rng.New(11)
	a := randomDense(s, 10, 6)
	f := QR(a)
	qtq := MulTA(f.Q, f.Q)
	if !qtq.EqualApprox(Identity(6), 1e-10) {
		t.Fatal("QᵀQ != I")
	}
}

func TestQRUpperTriangular(t *testing.T) {
	s := rng.New(12)
	a := randomDense(s, 7, 7)
	f := QR(a)
	for i := 1; i < 7; i++ {
		for j := 0; j < i; j++ {
			if f.R.At(i, j) != 0 {
				t.Fatalf("R[%d,%d] = %v below diagonal", i, j, f.R.At(i, j))
			}
		}
	}
}

func TestQRProperty(t *testing.T) {
	s := rng.New(13)
	f := func(seed uint16) bool {
		st := s.Split(uint64(seed))
		n := 1 + st.Intn(8)
		m := n + st.Intn(8)
		a := randomDense(st, m, n)
		qr := QR(a)
		if !Mul(qr.Q, qr.R).EqualApprox(a, 1e-9) {
			return false
		}
		return MulTA(qr.Q, qr.Q).EqualApprox(Identity(n), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	s := rng.New(14)
	// Build SPD matrix A = BᵀB + I.
	b := randomDense(s, 6, 6)
	a := Add(MulTA(b, b), Identity(6))
	l, ok := Cholesky(a)
	if !ok {
		t.Fatal("Cholesky failed on SPD matrix")
	}
	if !MulBT(l, l).EqualApprox(a, 1e-9) {
		t.Fatal("LLᵀ != A")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, ok := Cholesky(a); ok {
		t.Fatal("Cholesky accepted an indefinite matrix")
	}
}

func TestInvertSPD(t *testing.T) {
	s := rng.New(16)
	b := randomDense(s, 4, 4)
	a := Add(MulTA(b, b), Identity(4))
	inv, ok := InvertSPD(a)
	if !ok {
		t.Fatal("InvertSPD failed")
	}
	if !Mul(a, inv).EqualApprox(Identity(4), 1e-9) {
		t.Fatal("A * A⁻¹ != I")
	}
}

func BenchmarkQR64(b *testing.B) {
	s := rng.New(1)
	a := randomDense(s, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QR(a)
	}
}
