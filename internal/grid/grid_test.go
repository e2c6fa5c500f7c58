package grid

import (
	"testing"
	"testing/quick"
)

func testLayout() (*Grid, *StateLayout) {
	g := New(8, 6, 4, 1000, 1000, 300)
	l := NewLayout(g, []VarSpec{
		{Name: "eta", Levels: 1},
		{Name: "T", Levels: 4},
		{Name: "S", Levels: 4},
	})
	return g, l
}

func TestGridCounts(t *testing.T) {
	g, _ := testLayout()
	if g.N2() != 48 || g.N3() != 192 {
		t.Fatalf("N2=%d N3=%d", g.N2(), g.N3())
	}
}

func TestGridIdx(t *testing.T) {
	g, _ := testLayout()
	if g.Idx2(3, 2) != 2*8+3 {
		t.Fatalf("Idx2 = %d", g.Idx2(3, 2))
	}
	if g.Idx3(3, 2, 1) != 48+19 {
		t.Fatalf("Idx3 = %d", g.Idx3(3, 2, 1))
	}
}

func TestGridDepthsMonotone(t *testing.T) {
	g := New(4, 4, 10, 1, 1, 500)
	if g.Depths[0] != 0 {
		t.Fatal("surface level depth must be 0")
	}
	if g.Depths[9] != 500 {
		t.Fatalf("deepest level = %v, want 500", g.Depths[9])
	}
	for k := 1; k < 10; k++ {
		if g.Depths[k] <= g.Depths[k-1] {
			t.Fatal("depths not increasing")
		}
	}
}

func TestNearestLevel(t *testing.T) {
	g := New(4, 4, 5, 1, 1, 400) // levels 0,100,200,300,400
	cases := map[float64]int{0: 0, 30: 0, 90: 1, 151: 2, 1000: 4}
	for depth, want := range cases {
		if got := g.NearestLevel(depth); got != want {
			t.Fatalf("NearestLevel(%v) = %d, want %d", depth, got, want)
		}
	}
}

func TestLayoutDim(t *testing.T) {
	_, l := testLayout()
	want := 48 * (1 + 4 + 4)
	if l.Dim() != want {
		t.Fatalf("Dim = %d, want %d", l.Dim(), want)
	}
}

func TestLayoutSlices(t *testing.T) {
	_, l := testLayout()
	state := l.NewState()
	for i := range state {
		state[i] = float64(i)
	}
	eta := l.SliceByName(state, "eta")
	if len(eta) != 48 || eta[0] != 0 || eta[47] != 47 {
		t.Fatalf("eta slice wrong: len=%d first=%v last=%v", len(eta), eta[0], eta[47])
	}
	T := l.SliceByName(state, "T")
	if len(T) != 192 || T[0] != 48 {
		t.Fatalf("T slice wrong: len=%d first=%v", len(T), T[0])
	}
}

func TestLayoutLevelAndOffset(t *testing.T) {
	g, l := testLayout()
	state := l.NewState()
	tIdx := l.VarIndex("T")
	// Write through Offset, read back through At and Level.
	off := l.Offset(tIdx, 5, 3, 2)
	state[off] = 42
	if l.At(state, tIdx, 5, 3, 2) != 42 {
		t.Fatal("Offset/At disagree")
	}
	lev := l.Level(state, tIdx, 2)
	if lev[g.Idx2(5, 3)] != 42 {
		t.Fatal("Level slab addressing wrong")
	}
}

func TestVarIndexUnknown(t *testing.T) {
	_, l := testLayout()
	if l.VarIndex("nope") != -1 {
		t.Fatal("unknown variable should return -1")
	}
}

func TestOffsetsDisjointProperty(t *testing.T) {
	// Property: every (var, i, j, k) offset is unique and in range.
	g, l := testLayout()
	seen := make(map[int]bool)
	for v, spec := range l.Vars {
		for k := 0; k < spec.Levels; k++ {
			for j := 0; j < g.NY; j++ {
				for i := 0; i < g.NX; i++ {
					off := l.Offset(v, i, j, k)
					if off < 0 || off >= l.Dim() {
						t.Fatalf("offset %d out of range", off)
					}
					if seen[off] {
						t.Fatalf("duplicate offset %d", off)
					}
					seen[off] = true
				}
			}
		}
	}
	if len(seen) != l.Dim() {
		t.Fatalf("offsets cover %d of %d state entries", len(seen), l.Dim())
	}
}

func TestInBoundsProperty(t *testing.T) {
	g := New(10, 7, 1, 1, 1, 0)
	if err := quick.Check(func(i, j int8) bool {
		in := g.InBounds(int(i), int(j))
		want := int(i) >= 0 && int(i) < 10 && int(j) >= 0 && int(j) < 7
		return in == want
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMontereyBayGeometry(t *testing.T) {
	g := MontereyBay(21, 21, 5)
	if g.Lon(0) != -122.5 || g.Lat(0) != 36.3 {
		t.Fatal("Monterey Bay anchor wrong")
	}
	if g.Lat(20) <= g.Lat(0) || g.Lon(20) <= g.Lon(0) {
		t.Fatal("coordinates must increase with index")
	}
	// 100 km domain: ~0.9 degrees of latitude.
	if dLat := g.Lat(20) - g.Lat(0); dLat < 0.5 || dLat > 1.5 {
		t.Fatalf("domain latitude extent = %v degrees", dLat)
	}
}

func TestNewLayoutRejectsBadLevels(t *testing.T) {
	g := New(4, 4, 3, 1, 1, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Levels > NZ")
		}
	}()
	NewLayout(g, []VarSpec{{Name: "bad", Levels: 9}})
}

// Lon returns the longitude of column i (degrees).
func (g *Grid) Lon(i int) float64 {
	// ~111 km per degree scaled by cos(latitude of domain center).
	return g.Lon0 + float64(i)*g.Dx/(111e3*0.8)
}

// Lat returns the latitude of row j (degrees).
func (g *Grid) Lat(j int) float64 { return g.Lat0 + float64(j)*g.Dy/111e3 }

// At returns the value of variable idx at (i, j, k).
func (l *StateLayout) At(state []float64, idx, i, j, k int) float64 {
	return l.Level(state, idx, k)[l.G.Idx2(i, j)]
}
