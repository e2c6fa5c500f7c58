package core

import (
	"math"
	"testing"

	"esse/internal/grid"
)

func scalerFixture(t *testing.T) (*grid.StateLayout, *Scaler) {
	t.Helper()
	g := grid.New(4, 4, 2, 1, 1, 100)
	l := grid.NewLayout(g, []grid.VarSpec{
		{Name: "eta", Levels: 1},
		{Name: "T", Levels: 2},
	})
	s, err := NewScaler(l, map[string]float64{"eta": 0.05, "T": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return l, s
}

func TestScalerRoundTrip(t *testing.T) {
	l, s := scalerFixture(t)
	x := make([]float64, l.Dim())
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	z := s.ToScaled(nil, x)
	back := s.FromScaled(nil, z)
	for i := range x {
		if math.Abs(back[i]-x[i]) > 1e-12 {
			t.Fatalf("round trip differs at %d: %v vs %v", i, back[i], x[i])
		}
	}
}

func TestScalerPerVariableScales(t *testing.T) {
	l, s := scalerFixture(t)
	x := make([]float64, l.Dim())
	etaIdx := l.VarIndex("eta")
	tIdx := l.VarIndex("T")
	x[l.Offset(etaIdx, 0, 0, 0)] = 0.05 // one eta scale unit
	x[l.Offset(tIdx, 1, 1, 1)] = 0.5    // one T scale unit
	z := s.ToScaled(nil, x)
	if math.Abs(z[l.Offset(etaIdx, 0, 0, 0)]-1) > 1e-12 {
		t.Fatal("eta not scaled to unit")
	}
	if math.Abs(z[l.Offset(tIdx, 1, 1, 1)]-1) > 1e-12 {
		t.Fatal("T not scaled to unit")
	}
}

func TestScalerDefaultsToUnity(t *testing.T) {
	g := grid.New(3, 3, 1, 1, 1, 0)
	l := grid.NewLayout(g, []grid.VarSpec{{Name: "mystery", Levels: 1}})
	s, err := NewScaler(l, map[string]float64{"T": 0.5}) // T absent from layout
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Dim(); i++ {
		if s.At(i) != 1 {
			t.Fatalf("scale[%d] = %v, want 1", i, s.At(i))
		}
	}
}

func TestScalerRejectsNonPositive(t *testing.T) {
	g := grid.New(3, 3, 1, 1, 1, 0)
	l := grid.NewLayout(g, []grid.VarSpec{{Name: "T", Levels: 1}})
	if _, err := NewScaler(l, map[string]float64{"T": 0}); err == nil {
		t.Fatal("zero scale accepted")
	}
	if _, err := NewScaler(l, map[string]float64{"T": -1}); err == nil {
		t.Fatal("negative scale accepted")
	}
}

func TestScalerDimensionChecks(t *testing.T) {
	_, s := scalerFixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch must panic")
		}
	}()
	s.ToScaled(nil, []float64{1, 2})
}

func TestDefaultVarScalesCoverModelVars(t *testing.T) {
	scales := DefaultVarScales()
	for _, v := range []string{"eta", "u", "v", "T", "S"} {
		if scales[v] <= 0 {
			t.Fatalf("missing default scale for %q", v)
		}
	}
}

// Dim returns the state dimension.
func (s *Scaler) Dim() int { return len(s.Scale) }
