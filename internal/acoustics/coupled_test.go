package acoustics

import (
	"math"
	"testing"

	"esse/internal/core"
	"esse/internal/grid"
	"esse/internal/linalg"
	"esse/internal/ocean"
	"esse/internal/rng"
)

// coupledFixture builds a small ocean+TL ensemble from jittered
// climatologies, plus one held-out "truth" member.
func coupledFixture(t *testing.T, members int) (*CoupledEnsemble, []float64, *TLField) {
	t.Helper()
	g := grid.MontereyBay(12, 12, 4)
	master := rng.New(99)
	scaler, err := core.NewScaler(grid.NewLayout(g, ocean.Vars(g)), core.DefaultVarScales())
	if err != nil {
		t.Fatal(err)
	}
	tlCfg := DefaultTLConfig()
	tlCfg.NumRays = 150
	tlCfg.RangeCells, tlCfg.DepthCells = 20, 12

	build := func(seed uint64) ([]float64, *TLField) {
		st := master.Split(seed)
		cfg := ocean.DefaultConfig(g)
		cfg.Climo = cfg.Climo.Jitter(st)
		m := ocean.New(cfg, st.Split(1))
		m.Run(15)
		state := m.State(nil)
		sec, err := ExtractSection(m.Layout, state, 1, g.NY/2, g.NX-2, g.NY/2, 18)
		if err != nil {
			t.Fatal(err)
		}
		tl, err := ComputeTL(sec, tlCfg)
		if err != nil {
			t.Fatal(err)
		}
		return scaler.ToScaled(nil, state), tl
	}

	var oceanZ [][]float64
	var tls []*TLField
	for mIdx := 0; mIdx < members; mIdx++ {
		z, tl := build(uint64(mIdx))
		oceanZ = append(oceanZ, z)
		tls = append(tls, tl)
	}
	truthZ, truthTL := build(uint64(members + 1000))
	ens, err := NewCoupledEnsemble(oceanZ, tls, 5.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ens, truthZ, truthTL
}

func TestNewCoupledEnsembleValidation(t *testing.T) {
	tl := &TLField{TL: linalg.NewDense(3, 3)}
	if _, err := NewCoupledEnsemble([][]float64{{1}}, []*TLField{tl}, 5, 0); err == nil {
		t.Fatal("single member accepted")
	}
	if _, err := NewCoupledEnsemble([][]float64{{1}, {2}}, []*TLField{tl}, 5, 0); err == nil {
		t.Fatal("member/TL count mismatch accepted")
	}
	if _, err := NewCoupledEnsemble([][]float64{{1}, {2}}, []*TLField{tl, tl}, 0, 0); err == nil {
		t.Fatal("zero TL scale accepted")
	}
}

func TestCoupledEnsembleStructure(t *testing.T) {
	ens, _, _ := coupledFixture(t, 6)
	if ens.CoupledDim() != ens.OceanDim+ens.TLRows*ens.TLCols {
		t.Fatal("coupled dimension arithmetic wrong")
	}
	if err := ens.Subspace.Check(1e-7); err != nil {
		t.Fatal(err)
	}
	if len(ens.Mean) != ens.CoupledDim() {
		t.Fatal("mean length wrong")
	}
	// Cross-coupling: at least one dominant mode must have energy in
	// BOTH the ocean and the TL blocks (that is the whole point).
	mode := ens.Subspace.Modes.Col(nil, 0)
	oceanE, tlE := 0.0, 0.0
	for i, v := range mode {
		if i < ens.OceanDim {
			oceanE += v * v
		} else {
			tlE += v * v
		}
	}
	if oceanE < 1e-6 || tlE < 1e-6 {
		t.Fatalf("leading coupled mode lacks cross-coupling: ocean %v, TL %v", oceanE, tlE)
	}
}

func TestTLPartRoundTrip(t *testing.T) {
	ens, _, _ := coupledFixture(t, 4)
	tl := ens.TLPart(ens.Mean)
	if len(tl) != ens.TLRows*ens.TLCols {
		t.Fatal("TLPart length wrong")
	}
	// Scaled-back values should be plausible dB numbers.
	for _, v := range tl {
		if v < 0 || v > 250 {
			t.Fatalf("implausible mean TL %v dB", v)
		}
	}
	if len(ens.OceanPart(ens.Mean)) != ens.OceanDim {
		t.Fatal("OceanPart length wrong")
	}
}

func TestNewTLNetworkValidation(t *testing.T) {
	ens, _, _ := coupledFixture(t, 4)
	if _, err := ens.NewTLNetwork([]TLObservation{{RI: -1, ZI: 0, Stddev: 1}}); err == nil {
		t.Fatal("negative range index accepted")
	}
	if _, err := ens.NewTLNetwork([]TLObservation{{RI: 0, ZI: 999, Stddev: 1}}); err == nil {
		t.Fatal("depth index overflow accepted")
	}
	if _, err := ens.NewTLNetwork([]TLObservation{{RI: 0, ZI: 0, Stddev: 0}}); err == nil {
		t.Fatal("zero error accepted")
	}
}

func TestAssimilateTLReducesResidualAndUpdatesOcean(t *testing.T) {
	ens, _, truthTL := coupledFixture(t, 8)
	// Observe the truth TL at a grid of points.
	var obs []TLObservation
	var yDB []float64
	for ri := 2; ri < ens.TLRows; ri += 5 {
		for zi := 1; zi < ens.TLCols; zi += 4 {
			obs = append(obs, TLObservation{RI: ri, ZI: zi, Stddev: 1.0})
			yDB = append(yDB, truthTL.TL.At(ri, zi))
		}
	}
	net, err := ens.NewTLNetwork(obs)
	if err != nil {
		t.Fatal(err)
	}
	priorVar := ens.Subspace.TotalVariance()
	priorOcean := append([]float64(nil), ens.OceanPart(ens.Mean)...)
	an, err := ens.AssimilateTL(net, yDB)
	if err != nil {
		t.Fatal(err)
	}
	if an.ResidualNorm >= an.InnovationNorm {
		t.Fatalf("TL assimilation did not reduce the innovation: %v -> %v",
			an.InnovationNorm, an.ResidualNorm)
	}
	if ens.Subspace.TotalVariance() >= priorVar {
		t.Fatal("TL assimilation did not reduce coupled uncertainty")
	}
	// The ocean block must move: acoustic data updates the physics
	// through the cross-covariances.
	moved := 0.0
	post := ens.OceanPart(ens.Mean)
	for i := range post {
		d := post[i] - priorOcean[i]
		moved += d * d
	}
	if math.Sqrt(moved) == 0 {
		t.Fatal("ocean state unchanged by TL assimilation: no cross-coupling")
	}
}

func TestAssimilateTLDimensionError(t *testing.T) {
	ens, _, _ := coupledFixture(t, 4)
	net, err := ens.NewTLNetwork([]TLObservation{{RI: 1, ZI: 1, Stddev: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ens.AssimilateTL(net, []float64{1, 2}); err == nil {
		t.Fatal("observation count mismatch accepted")
	}
}

// CoupledDim returns the stacked state dimension.
func (c *CoupledEnsemble) CoupledDim() int { return c.OceanDim + c.TLRows*c.TLCols }

// OceanPart returns the ocean block of a coupled vector (still scaled).
func (c *CoupledEnsemble) OceanPart(coupled []float64) []float64 {
	return coupled[:c.OceanDim]
}
