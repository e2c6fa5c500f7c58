package obs

import (
	"math"
	"testing"

	"esse/internal/grid"
	"esse/internal/linalg"
	"esse/internal/rng"
)

func testLayout() *grid.StateLayout {
	g := grid.MontereyBay(12, 12, 4)
	return grid.NewLayout(g, []grid.VarSpec{
		{Name: "eta", Levels: 1},
		{Name: "T", Levels: 4},
		{Name: "S", Levels: 4},
	})
}

func TestAddResolvesOffset(t *testing.T) {
	l := testLayout()
	n := NewNetwork(l)
	if err := n.Add(Observation{Platform: CTD, Var: "T", I: 3, J: 4, K: 2, Stddev: 0.1}); err != nil {
		t.Fatal(err)
	}
	state := l.NewState()
	state[l.Offset(l.VarIndex("T"), 3, 4, 2)] = 7.5
	y := n.ApplyH(state)
	if len(y) != 1 || y[0] != 7.5 {
		t.Fatalf("ApplyH = %v, want [7.5]", y)
	}
}

func TestAddRejectsBadObservations(t *testing.T) {
	l := testLayout()
	n := NewNetwork(l)
	cases := []Observation{
		{Var: "nope", I: 0, J: 0, K: 0, Stddev: 1},
		{Var: "T", I: -1, J: 0, K: 0, Stddev: 1},
		{Var: "T", I: 0, J: 99, K: 0, Stddev: 1},
		{Var: "T", I: 0, J: 0, K: 9, Stddev: 1},
		{Var: "eta", I: 0, J: 0, K: 1, Stddev: 1}, // eta has 1 level
		{Var: "T", I: 0, J: 0, K: 0, Stddev: 0},
	}
	for i, c := range cases {
		if err := n.Add(c); err == nil {
			t.Fatalf("case %d: bad observation accepted: %+v", i, c)
		}
	}
	if n.Len() != 0 {
		t.Fatal("rejected observations must not be stored")
	}
}

func TestApplyHMatGathersRows(t *testing.T) {
	l := testLayout()
	n := NewNetwork(l)
	if err := n.Add(Observation{Var: "T", I: 1, J: 1, K: 0, Stddev: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := n.Add(Observation{Var: "S", I: 2, J: 2, K: 3, Stddev: 0.1}); err != nil {
		t.Fatal(err)
	}
	e := linalg.NewDense(l.Dim(), 2)
	off1 := l.Offset(l.VarIndex("T"), 1, 1, 0)
	off2 := l.Offset(l.VarIndex("S"), 2, 2, 3)
	e.Set(off1, 0, 1.5)
	e.Set(off2, 1, -2.5)
	he := unitPoints(t, n).ApplyHMat(e)
	if he.Rows != 2 || he.Cols != 2 {
		t.Fatalf("HE shape %dx%d", he.Rows, he.Cols)
	}
	if he.At(0, 0) != 1.5 || he.At(1, 1) != -2.5 || he.At(0, 1) != 0 {
		t.Fatalf("HE content wrong: %v", he)
	}
}

func TestRDiag(t *testing.T) {
	l := testLayout()
	n := NewNetwork(l)
	_ = n.Add(Observation{Var: "T", I: 0, J: 0, K: 0, Stddev: 0.5})
	r := unitPoints(t, n).R
	if len(r) != 1 || math.Abs(r[0]-0.25) > 1e-15 {
		t.Fatalf("R = %v", r)
	}
}

func TestSampleNoiseStatistics(t *testing.T) {
	l := testLayout()
	n := NewNetwork(l)
	_ = n.Add(Observation{Var: "T", I: 5, J: 5, K: 0, Stddev: 0.3})
	truth := l.NewState()
	truth[l.Offset(l.VarIndex("T"), 5, 5, 0)] = 12
	s := rng.New(1)
	const draws = 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < draws; i++ {
		y := n.Sample(truth, s)
		sum += y[0]
		sumSq += y[0] * y[0]
	}
	mean := sum / draws
	sd := math.Sqrt(sumSq/draws - mean*mean)
	if math.Abs(mean-12) > 0.01 {
		t.Fatalf("sample mean %v, want ~12", mean)
	}
	if math.Abs(sd-0.3) > 0.01 {
		t.Fatalf("sample stddev %v, want ~0.3", sd)
	}
}

func TestCTDSectionFullDepth(t *testing.T) {
	l := testLayout()
	n := NewNetwork(l)
	if err := n.AddCTDSection(2, 2, 2, 0, 3, 0.05, 0.02); err != nil {
		t.Fatal(err)
	}
	// 3 stations × 4 levels × 2 variables
	if n.Len() != 24 {
		t.Fatalf("CTD section yielded %d obs, want 24", n.Len())
	}
	counts := n.CountByPlatform()
	if counts[CTD] != 24 {
		t.Fatalf("platform counts = %v", counts)
	}
}

func TestCTDSectionSkipsOffGrid(t *testing.T) {
	l := testLayout()
	n := NewNetwork(l)
	// Walks off the grid after 2 stations.
	if err := n.AddCTDSection(10, 0, 5, 0, 4, 0.05, 0.02); err != nil {
		t.Fatal(err)
	}
	if n.Len() != 8 { // only station at i=10 is in bounds: 1 station × 4 × 2
		t.Fatalf("CTD off-grid section yielded %d obs, want 8", n.Len())
	}
}

func TestGliderYoCyclesDepth(t *testing.T) {
	l := testLayout()
	n := NewNetwork(l)
	if err := n.AddGliderYo(0, 0, 1, 0, 8, 0.1); err != nil {
		t.Fatal(err)
	}
	levels := map[int]bool{}
	for _, o := range n.Obs {
		levels[o.K] = true
	}
	if len(levels) != 4 {
		t.Fatalf("glider sampled %d distinct levels, want 4", len(levels))
	}
}

func TestSSTSwathSurfaceOnly(t *testing.T) {
	l := testLayout()
	n := NewNetwork(l)
	if err := n.AddSSTSwath(4, 0.5); err != nil {
		t.Fatal(err)
	}
	if n.Len() == 0 {
		t.Fatal("empty SST swath")
	}
	for _, o := range n.Obs {
		if o.K != 0 || o.Var != "T" || o.Platform != SatelliteSST {
			t.Fatalf("bad SST observation %+v", o)
		}
	}
}

func TestAOSN2NetworkMultiPlatform(t *testing.T) {
	l := testLayout()
	n, err := AOSN2Network(l)
	if err != nil {
		t.Fatal(err)
	}
	counts := n.CountByPlatform()
	for _, p := range []Platform{CTD, AUV, Glider, SatelliteSST} {
		if counts[p] == 0 {
			t.Fatalf("AOSN2 network missing platform %v (counts %v)", p, counts)
		}
	}
	if n.Len() < 50 {
		t.Fatalf("AOSN2 network has only %d observations", n.Len())
	}
}
