package obs

import (
	"math"
	"testing"

	"esse/internal/linalg"
)

// unitPoints is the network's operator in physical units (every scale 1).
func unitPoints(t *testing.T, n *Network) *Points {
	t.Helper()
	ones := make([]float64, n.Layout.Dim())
	for i := range ones {
		ones[i] = 1
	}
	p, err := NewScaled(n, ones)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func scaledFixture(t *testing.T) (*Network, *Points, []float64) {
	t.Helper()
	l := testLayout()
	n := NewNetwork(l)
	if err := n.Add(Observation{Var: "T", I: 2, J: 3, K: 1, Stddev: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := n.Add(Observation{Var: "eta", I: 1, J: 1, K: 0, Stddev: 0.02}); err != nil {
		t.Fatal(err)
	}
	scale := make([]float64, l.Dim())
	for i := range scale {
		scale[i] = 1
	}
	// T scaled by 0.5, eta by 0.05.
	tSlice := l.SliceByName(scale, "T")
	for i := range tSlice {
		tSlice[i] = 0.5
	}
	etaSlice := l.SliceByName(scale, "eta")
	for i := range etaSlice {
		etaSlice[i] = 0.05
	}
	sn, err := NewScaled(n, scale)
	if err != nil {
		t.Fatal(err)
	}
	return n, sn, scale
}

func TestScaledRDiag(t *testing.T) {
	n, sn, _ := scaledFixture(t)
	rz := sn.R
	// T obs: (0.5/0.5)² = 1; eta obs: (0.02/0.05)² = 0.16.
	if math.Abs(rz[0]-1) > 1e-12 {
		t.Fatalf("scaled T variance = %v, want 1", rz[0])
	}
	if math.Abs(rz[1]-0.16) > 1e-12 {
		t.Fatalf("scaled eta variance = %v, want 0.16", rz[1])
	}
	// The network keeps its physical errors.
	if n.Obs[0].Stddev != 0.5 {
		t.Fatal("NewScaled mutated the base network")
	}
}

func TestScaledScaleObs(t *testing.T) {
	_, sn, _ := scaledFixture(t)
	y := sn.ScaleObs([]float64{10, 0.1})
	if math.Abs(y[0]-20) > 1e-12 { // 10 / 0.5
		t.Fatalf("scaled T obs = %v, want 20", y[0])
	}
	if math.Abs(y[1]-2) > 1e-12 { // 0.1 / 0.05
		t.Fatalf("scaled eta obs = %v, want 2", y[1])
	}
}

func TestScaledApplyHConsistency(t *testing.T) {
	// Invariant: H_z(x ⊘ s) == (H x) ⊘ s_obs, i.e. scaling commutes.
	n, sn, scale := scaledFixture(t)
	l := n.Layout
	x := make([]float64, l.Dim())
	for i := range x {
		x[i] = float64(i%17) * 0.3
	}
	z := make([]float64, len(x))
	for i := range x {
		z[i] = x[i] / scale[i]
	}
	direct := sn.ApplyH(z)
	viaPhysical := sn.ScaleObs(n.ApplyH(x))
	for i := range direct {
		if math.Abs(direct[i]-viaPhysical[i]) > 1e-12 {
			t.Fatalf("scaling does not commute at obs %d: %v vs %v", i, direct[i], viaPhysical[i])
		}
	}
}

func TestScaledApplyHMat(t *testing.T) {
	n, sn, _ := scaledFixture(t)
	e := linalg.NewDense(n.Layout.Dim(), 2)
	e.Set(sn.Offsets[0], 0, 3)
	he := sn.ApplyHMat(e)
	if he.At(0, 0) != 3 || he.At(1, 0) != 0 {
		t.Fatalf("ApplyHMat gather wrong: %v", he)
	}
}

func TestNewScaledValidation(t *testing.T) {
	l := testLayout()
	n := NewNetwork(l)
	if _, err := NewScaled(n, []float64{1, 2}); err == nil {
		t.Fatal("wrong-length scale accepted")
	}
	bad := make([]float64, l.Dim())
	if _, err := NewScaled(n, bad); err == nil {
		t.Fatal("zero scales accepted")
	}
}

// TestOffsetsMatchApplyH: the operator reads the elements the network
// samples, in network order.
func TestOffsetsMatchApplyH(t *testing.T) {
	n, sn, _ := scaledFixture(t)
	x := make([]float64, n.Layout.Dim())
	for i, off := range sn.Offsets {
		x[off] = float64(i + 1)
	}
	y := n.ApplyH(x)
	for i := range sn.Offsets {
		if y[i] != float64(i+1) {
			t.Fatalf("Offsets[%d] inconsistent with ApplyH", i)
		}
	}
}
