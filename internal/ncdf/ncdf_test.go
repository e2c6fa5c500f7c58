package ncdf

import (
	"math"
	"strings"
	"testing"

	"esse/internal/grid"
	"esse/internal/ocean"
	"esse/internal/rng"
)

func sampleFile(t *testing.T) *File {
	t.Helper()
	f := New()
	f.Attrs["title"] = "test dataset"
	if err := f.AddDim("x", 4); err != nil {
		t.Fatal(err)
	}
	if err := f.AddDim("y", 3); err != nil {
		t.Fatal(err)
	}
	data := make([]float64, 12)
	for i := range data {
		data[i] = float64(i)
	}
	if err := f.AddVar("T", []string{"y", "x"}, map[string]string{"units": "degC"}, data); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAddDimValidation(t *testing.T) {
	f := New()
	if err := f.AddDim("x", 0); err == nil {
		t.Fatal("zero-length dimension accepted")
	}
	_ = f.AddDim("x", 2)
	if err := f.AddDim("x", 3); err == nil {
		t.Fatal("duplicate dimension accepted")
	}
}

func TestAddVarValidation(t *testing.T) {
	f := New()
	_ = f.AddDim("x", 4)
	if err := f.AddVar("T", []string{"nope"}, nil, []float64{1}); err == nil {
		t.Fatal("unknown dimension accepted")
	}
	if err := f.AddVar("T", []string{"x"}, nil, []float64{1, 2}); err == nil {
		t.Fatal("data/shape mismatch accepted")
	}
	if err := f.AddVar("T", []string{"x"}, nil, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddVar("T", []string{"x"}, nil, []float64{1, 2, 3, 4}); err == nil {
		t.Fatal("duplicate variable accepted")
	}
}

func TestHyperSlabFull(t *testing.T) {
	f := sampleFile(t)
	v, _ := f.Var("T")
	out, err := f.HyperSlab(v, []int{0, 0}, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 12 || out[5] != 5 {
		t.Fatalf("full slab wrong: %v", out)
	}
}

func TestHyperSlabInterior(t *testing.T) {
	f := sampleFile(t)
	v, _ := f.Var("T")
	// Rows 1..2, cols 1..2 of the 3x4 array laid out row-major:
	// row1: 5,6 ; row2: 9,10
	out, err := f.HyperSlab(v, []int{1, 1}, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 6, 9, 10}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("slab = %v, want %v", out, want)
		}
	}
}

func TestHyperSlabBounds(t *testing.T) {
	f := sampleFile(t)
	v, _ := f.Var("T")
	cases := [][2][]int{
		{{0}, {1}},                 // wrong rank
		{{0, 0}, {4, 4}},           // count overflow
		{{-1, 0}, {1, 1}},          // negative start
		{{0, 0}, {0, 1}},           // zero count
		{{3, 0}, {1, 1}},           // start at edge
		{{math.MaxInt, 0}, {1, 1}}, // start+count wraps
	}
	for i, c := range cases {
		if _, err := f.HyperSlab(v, c[0], c[1]); err == nil {
			t.Fatalf("case %d accepted: %v", i, c)
		}
	}
}

func TestDDSFormat(t *testing.T) {
	f := sampleFile(t)
	dds := f.DDS("ocean")
	for _, want := range []string{"Dataset {", "Float64 T[y = 3][x = 4];", "} ocean;"} {
		if !strings.Contains(dds, want) {
			t.Fatalf("DDS missing %q:\n%s", want, dds)
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	g := grid.MontereyBay(8, 8, 3)
	m := ocean.New(ocean.DefaultConfig(g), rng.New(1))
	m.Run(5)
	state := m.State(nil)
	f, err := FromState(m.Layout, state, map[string]string{"member": "42"})
	if err != nil {
		t.Fatal(err)
	}
	back, err := ToState(f, m.Layout)
	if err != nil {
		t.Fatal(err)
	}
	for i := range state {
		if state[i] != back[i] {
			t.Fatalf("state[%d] changed through ncdf round trip", i)
		}
	}
	if f.Attrs["member"] != "42" {
		t.Fatal("global attribute lost")
	}
	// eta must be 2-D, T 3-D.
	eta, _ := f.Var("eta")
	if len(eta.Dims) != 2 {
		t.Fatalf("eta rank %d", len(eta.Dims))
	}
	tv, _ := f.Var("T")
	if len(tv.Dims) != 3 {
		t.Fatalf("T rank %d", len(tv.Dims))
	}
}

func TestToStateMissingVariable(t *testing.T) {
	g := grid.MontereyBay(6, 6, 2)
	l := grid.NewLayout(g, ocean.Vars(g))
	f := New()
	_ = f.AddDim("lon", 6)
	if _, err := ToState(f, l); err == nil {
		t.Fatal("dataset without variables accepted")
	}
}

func TestFromStatePartialDepthVariable(t *testing.T) {
	// A variable with 1 < Levels < NZ gets its own level dimension.
	g := grid.New(4, 4, 3, 1, 1, 100)
	l := grid.NewLayout(g, []grid.VarSpec{
		{Name: "T", Levels: 3},
		{Name: "mixed2", Levels: 2},
	})
	state := l.NewState()
	for i := range state {
		state[i] = float64(i)
	}
	f, err := FromState(l, state, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := f.Var("mixed2")
	if !ok {
		t.Fatal("partial-depth variable missing")
	}
	if len(v.Dims) != 3 || v.Dims[0] != "lev_mixed2" {
		t.Fatalf("dims = %v", v.Dims)
	}
	d, ok := f.Dim("lev_mixed2")
	if !ok || d.Len != 2 {
		t.Fatalf("lev_mixed2 dimension: %+v ok=%v", d, ok)
	}
	back, err := ToState(f, l)
	if err != nil {
		t.Fatal(err)
	}
	for i := range state {
		if back[i] != state[i] {
			t.Fatal("partial-depth round trip failed")
		}
	}
}

func TestShape(t *testing.T) {
	f := sampleFile(t)
	v, _ := f.Var("T")
	shape := f.Shape(v)
	if len(shape) != 2 || shape[0] != 3 || shape[1] != 4 {
		t.Fatalf("Shape = %v", shape)
	}
}

func TestFromStateDimMismatch(t *testing.T) {
	g := grid.New(4, 4, 2, 1, 1, 100)
	l := grid.NewLayout(g, []grid.VarSpec{{Name: "T", Levels: 2}})
	if _, err := FromState(l, []float64{1, 2}, nil); err == nil {
		t.Fatal("short state accepted")
	}
}

func TestToStateWrongSizeVariable(t *testing.T) {
	g := grid.New(4, 4, 1, 1, 1, 0)
	l := grid.NewLayout(g, []grid.VarSpec{{Name: "eta", Levels: 1}})
	f := New()
	_ = f.AddDim("x", 2)
	_ = f.AddVar("eta", []string{"x"}, nil, []float64{1, 2})
	if _, err := ToState(f, l); err == nil {
		t.Fatal("wrong-size variable accepted")
	}
}
