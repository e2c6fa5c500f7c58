package ocean

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"esse/internal/grid"
	"esse/internal/physics"
	"esse/internal/rng"
)

func testModel(seed uint64) *Model {
	g := grid.MontereyBay(16, 16, 4)
	cfg := DefaultConfig(g)
	return New(cfg, rng.New(seed))
}

// newEvery is New with the tracers stepping every k dynamics steps. The
// span goes into newModel, which forms the tracer forcing's amplitude
// for it: setting the field on a built model would leave that amplitude
// at tracerEvery's, on both sides of any comparison.
func newEvery(cfg Config, noise *rng.Stream, k int) *Model {
	m := newModel(cfg, noise, k)
	m.initClimatology()
	return m
}

func TestDefaultConfigStable(t *testing.T) {
	m := testModel(1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfl := m.CFLNumber(); cfl <= 0 || cfl > 0.7 {
		t.Fatalf("CFL = %v, want (0, 0.7]", cfl)
	}
	// The range does not pin the formula — √(g·Dt) for √(g·H) stays
	// inside it — and Validate gates every model on this number.
	for _, g := range []*grid.Grid{grid.MontereyBay(16, 16, 4), grid.MontereyBay(17, 9, 3)} {
		m := New(DefaultConfig(g), rng.New(1))
		want := math.Sqrt(physics.Gravity*meanDepth) * m.Cfg.Dt / math.Min(g.Dx, g.Dy)
		if got := m.CFLNumber(); math.Abs(got-want) > 1e-12*want {
			t.Errorf("%dx%d: CFL = %v, want √(g·H)·Dt/min(Dx,Dy) = %v", g.NX, g.NY, got, want)
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	m := testModel(2)
	s1 := m.State(nil)
	if len(s1) != m.StateDim() {
		t.Fatalf("state length %d != dim %d", len(s1), m.StateDim())
	}
	m2 := testModel(3)
	m2.SetState(s1)
	s2 := m2.State(nil)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("state round trip differs at %d: %v vs %v", i, s1[i], s2[i])
		}
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	a, b := testModel(7), testModel(7)
	a.Run(20)
	b.Run(20)
	sa, sb := a.State(nil), b.State(nil)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("same-seed runs diverged: model is not reproducible")
		}
	}
}

func TestStochasticSpreadWithDifferentSeeds(t *testing.T) {
	a, b := testModel(1), testModel(2)
	a.Run(50)
	b.Run(50)
	sa, sb := a.State(nil), b.State(nil)
	diff := 0.0
	for i := range sa {
		d := sa[i] - sb[i]
		diff += d * d
	}
	if math.Sqrt(diff) == 0 {
		t.Fatal("different noise seeds produced identical trajectories")
	}
}

func TestStepKeepsFieldsFinite(t *testing.T) {
	m := testModel(4)
	m.Run(200)
	for i, v := range m.State(nil) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("state[%d] = %v after 200 steps", i, v)
		}
	}
}

func TestEnergyBounded(t *testing.T) {
	m := testModel(5)
	e0 := m.Energy()
	m.Run(300)
	e1 := m.Energy()
	if e1 > 100*(e0+1) {
		t.Fatalf("energy grew from %v to %v: numerical instability", e0, e1)
	}
}

func TestTemperatureStaysPhysical(t *testing.T) {
	m := testModel(6)
	m.Run(300)
	st := m.State(nil)
	for _, v := range m.Layout.SliceByName(st, "T") {
		if v < -5 || v > 40 {
			t.Fatalf("temperature %v out of physical range", v)
		}
	}
	for _, v := range m.Layout.SliceByName(st, "S") {
		if v < 25 || v > 40 {
			t.Fatalf("salinity %v out of physical range", v)
		}
	}
}

func TestStratification(t *testing.T) {
	m := testModel(8)
	g := m.Cfg.Grid
	st := m.State(nil)
	tt := m.Layout.SliceByName(st, "T")
	// Column-mean surface temperature must exceed bottom temperature.
	surf, bot := 0.0, 0.0
	for id := 0; id < g.N2(); id++ {
		surf += tt[id]
		bot += tt[(g.NZ-1)*g.N2()+id]
	}
	if surf <= bot {
		t.Fatalf("no stratification: surface %v <= bottom %v", surf, bot)
	}
	if sst := surf / float64(g.N2()); sst < 8 || sst > 25 {
		t.Fatalf("mean SST = %v, implausible for California coast", sst)
	}
}

func TestClosedBoundaryVelocities(t *testing.T) {
	m := testModel(9)
	m.Run(50)
	st := m.State(nil)
	u := m.Layout.SliceByName(st, "u")
	v := m.Layout.SliceByName(st, "v")
	g := m.Cfg.Grid
	for i := 0; i < g.NX; i++ {
		if u[g.Idx2(i, 0)] != 0 || v[g.Idx2(i, 0)] != 0 ||
			u[g.Idx2(i, g.NY-1)] != 0 || v[g.Idx2(i, g.NY-1)] != 0 {
			t.Fatal("velocity not zero on north/south boundary")
		}
	}
	for j := 0; j < g.NY; j++ {
		if u[g.Idx2(0, j)] != 0 || u[g.Idx2(g.NX-1, j)] != 0 {
			t.Fatal("velocity not zero on east/west boundary")
		}
	}
}

func TestTimeAdvances(t *testing.T) {
	m := testModel(10)
	if m.Time() != 0 {
		t.Fatal("initial time must be 0")
	}
	m.Run(5)
	want := 5 * m.Cfg.Dt
	if math.Abs(m.Time()-want) > 1e-9 {
		t.Fatalf("time = %v, want %v", m.Time(), want)
	}
}

func TestEddySignatureInSSH(t *testing.T) {
	m := testModel(13)
	st := m.State(nil)
	eta := m.Layout.SliceByName(st, "eta")
	max := 0.0
	for _, v := range eta {
		if v > max {
			max = v
		}
	}
	if max < 0.02 {
		t.Fatalf("initial SSH eddy amplitude %v too small", max)
	}
}

// An eddy centred on a grid point with a zero radius fraction is the
// 0/0 the radius clamp in initClimatology exists for.
func TestZeroRadiusEddyIsFinite(t *testing.T) {
	cfg := DefaultConfig(grid.MontereyBay(16, 16, 3))
	cfg.Climo.EddyCXFrac, cfg.Climo.EddyCYFrac = 0.5, 0.5
	cfg.Climo.EddyRadiusFrac = 0
	for i, v := range New(cfg, rng.New(1)).State(nil) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("state[%d] = %v for a zero-radius eddy", i, v)
		}
	}
}

func TestPerturbationGrowth(t *testing.T) {
	// Nonlinear stochastic dynamics: an initially tiny perturbation plus
	// differing noise realizations must grow, not collapse to zero.
	a, b := testModel(20), testModel(21)
	sb := b.State(nil)
	sb[0] += 1e-6
	b.SetState(sb)
	a.Run(100)
	b.Run(100)
	sa, sb2 := a.State(nil), b.State(nil)
	d := 0.0
	for i := range sa {
		diff := sa[i] - sb2[i]
		d += diff * diff
	}
	if math.Sqrt(d) < 1e-9 {
		t.Fatalf("perturbation collapsed: %v", math.Sqrt(d))
	}
}

func TestValidateCatchesBadCFL(t *testing.T) {
	g := grid.MontereyBay(16, 16, 3)
	cfg := DefaultConfig(g)
	cfg.Dt *= 100
	m := New(cfg, rng.New(1))
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted an unstable time step")
	}
}

// TestStepBitIdenticalToReference is the contract of the row kernels
// across re-pins 3 and 4: whatever the grid shape, the configuration or
// the sign of the flow, Step with the tracers on every step (K = 1,
// built through newEvery) leaves the noise stream, the clock and the dynamics
// (eta, u, v) bit for bit where stepReference does on the same forcing,
// and after every step each tracer within 1e-12 of the reference field's
// range (of its magnitude, where the field is constant). The tracers feed
// nothing back, so the difference is only the tracer kernel's rounding.
func TestStepBitIdenticalToReference(t *testing.T) {
	noWind := func(c *Config) { c.NoiseWind = 0 }
	noTracer := func(c *Config) { c.NoiseTracer = 0 }
	cases := []struct {
		name       string
		nx, ny, nz int
		tweak      func(*Config)
		stir       bool // load a sign-varying velocity field first
	}{
		{name: "32x32x6 default", nx: 32, ny: 32, nz: 6},
		{name: "17x9x3 Dx!=Dy", nx: 17, ny: 9, nz: 3},
		{name: "2x2x1 no interior", nx: 2, ny: 2, nz: 1},
		{name: "3x3x1 one interior cell", nx: 3, ny: 3, nz: 1},
		{name: "3x2x2 no interior row", nx: 3, ny: 2, nz: 2},
		{name: "no wind noise", nx: 12, ny: 10, nz: 3, tweak: noWind},
		{name: "no tracer noise", nx: 12, ny: 10, nz: 3, tweak: noTracer},
		{name: "stirred, both upwind arms", nx: 20, ny: 14, nz: 3, stir: true},
	}
	const steps = 320
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(grid.MontereyBay(tc.nx, tc.ny, tc.nz))
			if tc.tweak != nil {
				tc.tweak(&cfg)
			}
			got, want := newEvery(cfg, rng.New(77), 1), newEvery(cfg, rng.New(77), 1)
			if tc.stir {
				st := stirredState(t, want)
				got.SetState(st)
				want.SetState(st)
			}
			for n := 0; n < steps; n++ {
				got.Step()
				want.sampleForcing()
				want.stepReference()
				gs, ws := got.State(nil), want.State(nil)
				for _, v := range []struct {
					name string
					rel  float64
				}{{"eta", 0}, {"u", 0}, {"v", 0}, {"T", 1e-12}, {"S", 1e-12}} {
					g, w := got.Layout.SliceByName(gs, v.name), want.Layout.SliceByName(ws, v.name)
					if d, r := maxDiffAndRange(g, w); d > v.rel*r || math.IsNaN(d) || math.IsInf(r, 0) {
						t.Fatalf("step %d: %s differs from the reference by %g, %g of its range %g", n+1, v.name, d, d/r, r)
					}
				}
			}
			if got.Time() != want.Time() {
				t.Fatalf("time %v, reference %v", got.Time(), want.Time())
			}
			// Same number of draws: the next normal (which may be a held
			// spare) and the next raw word agree.
			if g, w := got.noise.Norm(), want.noise.Norm(); g != w {
				t.Fatalf("next Norm %v, reference %v", g, w)
			}
			if g, w := got.noise.Uint64(), want.noise.Uint64(); g != w {
				t.Fatalf("next Uint64 %#x, reference %#x", g, w)
			}
		})
	}
}

// stirredState returns m's state with a sign-varying velocity field
// loaded, so that advection takes both arms of the upwind choice.
func stirredState(t *testing.T, m *Model) []float64 {
	t.Helper()
	st := m.State(nil)
	flow := rng.New(5)
	u, v := m.Layout.SliceByName(st, "u"), m.Layout.SliceByName(st, "v")
	neg := 0
	for i := range u {
		u[i], v[i] = 0.3*flow.Norm(), 0.3*flow.Norm()
		if u[i] < 0 && v[i] < 0 {
			neg++
		}
	}
	if neg == 0 || neg == len(u) {
		t.Fatalf("stirred flow is one-signed (%d of %d cells negative)", neg, len(u))
	}
	return st
}

// clockTolerance is how far the tracer clock may put T and S from a
// reference run, as a share of the largest change the reference made to
// the field since its start (requireTracersClose). The runs compared
// draw different forcing, so they differ by that and by the clock's
// splitting; measured at most 1.7 % on TestTracerClockTracksEveryStep's
// table. A tracer step that kept the span Dt in its weights or its
// diffusion would be off by most of the change.
const clockTolerance = 0.05

// TestTracerClockTracksEveryStep holds the tracer clock to the stepper
// without one: T and S at K = tracerEvery against K = 1, from one state
// and one noise seed, after a cycle's 25 steps and a forecast-bound
// member's 150, within clockTolerance.
func TestTracerClockTracksEveryStep(t *testing.T) {
	cases := []struct {
		name       string
		nx, ny, nz int
		stir       bool
	}{
		{name: "32x32x6 default", nx: 32, ny: 32, nz: 6},
		{name: "17x9x3 Dx!=Dy", nx: 17, ny: 9, nz: 3},
		{name: "stirred", nx: 20, ny: 14, nz: 3, stir: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(grid.MontereyBay(tc.nx, tc.ny, tc.nz))
			clocked, every := newEvery(cfg, rng.New(77), tracerEvery), newEvery(cfg, rng.New(77), 1)
			if tc.stir {
				st := stirredState(t, every)
				clocked.SetState(st)
				every.SetState(st)
			}
			init := every.State(nil)
			done := 0
			for _, steps := range []int{25, 150} {
				clocked.Run(steps - done)
				every.Run(steps - done)
				done = steps
				requireTracersClose(t, fmt.Sprintf("after %d steps", steps), every.Layout, clocked.State(nil), every.State(nil), init)
			}
		})
	}
}

// TestRunSplitOnATracerStep pins what a Run carries into the next. Split
// on a tracer step, two Runs are one Run to the bit. Split off one, the
// first Run ends with a partial tracer step and draws its forcing there,
// so the two are one Run within clockTolerance.
func TestRunSplitOnATracerStep(t *testing.T) {
	const steps = 25
	cfg := DefaultConfig(grid.MontereyBay(16, 12, 4))
	whole := New(cfg, rng.New(4))
	init := whole.State(nil)
	whole.Run(steps)
	want := whole.State(nil)
	for _, first := range []int{2 * tracerEvery, 2*tracerEvery + 2} {
		m := New(cfg, rng.New(4))
		m.Run(first)
		m.Run(steps - first)
		got := m.State(nil)
		if first%tracerEvery == 0 {
			requireBitEqual(t, got, want)
			continue
		}
		requireTracersClose(t, fmt.Sprintf("Run(%d) then Run(%d)", first, steps-first), m.Layout, got, want, init)
	}
}

// TestRunAndStateCatchUp: Run's end and State take the pending partial
// tracer step, so a Run off a tracer step leaves none pending, State
// after Steps packs what State after the same Run does, and a second
// State returns the same bits.
func TestRunAndStateCatchUp(t *testing.T) {
	stepped, run := testModel(3), testModel(3)
	for range tracerEvery - 2 {
		stepped.Step()
	}
	run.Run(tracerEvery - 2)
	if run.pending != 0 {
		t.Fatalf("Run(%d) left %d dynamics steps pending", tracerEvery-2, run.pending)
	}
	first := stepped.State(nil)
	requireBitEqual(t, first, run.State(nil))
	requireBitEqual(t, stepped.State(nil), first)
}

// TestPartialStepIsAShorterClock: a Run of p < K steps ends with the
// partial tracer step that a clock of K = p takes in full, on the same
// draws (in both the tracer's normals follow the p-th step's wind), so
// the two agree to rounding: the dynamics bit for bit, T and S within
// 1e-12 of their range. A partial step that kept the full step's forcing
// amplitude, or its span, would be off by far more.
func TestPartialStepIsAShorterClock(t *testing.T) {
	cfg := DefaultConfig(grid.MontereyBay(20, 14, 3))
	for p := 1; p < tracerEvery; p++ {
		partial, short := newEvery(cfg, rng.New(8), tracerEvery), newEvery(cfg, rng.New(8), p)
		st := stirredState(t, short)
		partial.SetState(st)
		short.SetState(st)
		partial.Run(p)
		short.Run(p)
		ps, ss := partial.State(nil), short.State(nil)
		for _, v := range []struct {
			name string
			rel  float64
		}{{"eta", 0}, {"u", 0}, {"v", 0}, {"T", 1e-12}, {"S", 1e-12}} {
			g, w := partial.Layout.SliceByName(ps, v.name), short.Layout.SliceByName(ss, v.name)
			if d, r := maxDiffAndRange(g, w); !(d <= v.rel*r) {
				t.Errorf("p = %d: %s differs from K = p's by %g, %g of its range %g", p, v.name, d, d/r, r)
			}
		}
	}
}

// requireTracersClose fails unless T and S in got are within
// clockTolerance of want, as a share of the largest change want made to
// the field from init.
func requireTracersClose(t *testing.T, label string, l *grid.StateLayout, got, want, init []float64) {
	t.Helper()
	for _, name := range []string{"T", "S"} {
		d, _ := maxDiffAndRange(l.SliceByName(got, name), l.SliceByName(want, name))
		moved, _ := maxDiffAndRange(l.SliceByName(want, name), l.SliceByName(init, name))
		if !(d <= clockTolerance*moved) {
			t.Errorf("%s: %s differs by %.3g, %.3g of the %.3g it moved (tolerance %g)", label, name, d, d/moved, moved, clockTolerance)
		}
	}
}

// TestForcingStatistics holds the KL forcing to what it is built to be,
// over 3000 draws: at interior cells each field's variance is the one its
// modes and weights give; the edge band keeps its forcing (the
// boundary-raw per-cell noise it replaced had its edge at 1.3 times the
// centre's variance, a sine basis would have it near 0); and successive
// draws are uncorrelated, a Wiener increment.
func TestForcingStatistics(t *testing.T) {
	const draws = 3000
	g := grid.MontereyBay(24, 20, 2)
	m := newEvery(DefaultConfig(g), rng.New(11), 1)
	nx, ny, kk := g.NX, g.NY, klModes*klModes
	fields := []struct {
		name string
		f    []float64
		base float64
	}{{"fx", m.fx, 0}, {"fy", m.fy, -windAmp}, {"ftr", m.ftr, 0}}
	// want[n][id] is field n's variance at cell id: Σ_ab (zScale_ab X_ia Y_jb)².
	want := make([][]float64, len(fields))
	for n := range fields {
		want[n] = make([]float64, g.N2())
		for id := range want[n] {
			i, j := id%nx, id/nx
			for ab := 0; ab < kk; ab++ {
				c := m.zScale[n*kk+ab] * m.klX[i][ab/klModes] * m.klY[j][ab%klModes]
				want[n][id] += c * c
			}
		}
	}
	sum2 := make([][]float64, len(fields))
	lag := make([][]float64, len(fields))
	prev := make([][]float64, len(fields))
	for n := range fields {
		sum2[n], lag[n], prev[n] = make([]float64, g.N2()), make([]float64, g.N2()), make([]float64, g.N2())
	}
	for d := 0; d < draws; d++ {
		m.sampleForcing()
		for n, fl := range fields {
			for id, v := range fl.f {
				v -= fl.base
				sum2[n][id] += v * v
				lag[n][id] += v * prev[n][id]
				prev[n][id] = v
			}
		}
	}
	band := func(i, j int) bool { return i == 1 || j == 1 || i == nx-2 || j == ny-2 }
	centre := func(i, j int) bool { return abs(i-nx/2) <= 2 && abs(j-ny/2) <= 2 }
	for n, fl := range fields {
		var got, exp, edge, mid, nEdge, nMid float64
		for id := range fl.f {
			i, j := id%nx, id/nx
			if i == 0 || j == 0 || i == nx-1 || j == ny-1 {
				continue
			}
			got += sum2[n][id] / draws
			exp += want[n][id]
			if band(i, j) {
				edge, nEdge = edge+sum2[n][id], nEdge+1
			}
			if centre(i, j) {
				mid, nMid = mid+sum2[n][id], nMid+1
			}
		}
		if r := got / exp; math.Abs(r-1) > 0.05 {
			t.Errorf("%s: interior variance %g, %.3f of the modes' %g", fl.name, got, r, exp)
		}
		if r := (edge / nEdge) / (mid / nMid); r < 0.5 || r > 2 {
			t.Errorf("%s: edge-band variance %.3f of the centre's, want [0.5, 2]", fl.name, r)
		}
		// Lag-1 correlation in time at the centre cell, over draws-1 pairs.
		id := (ny/2)*nx + nx/2
		if r := lag[n][id] / sum2[n][id]; math.Abs(r) > 3/math.Sqrt(draws-1) {
			t.Errorf("%s: successive draws correlate, r = %.4f", fl.name, r)
		}
	}
}

// TestForcedSpreadCalibrated pins klWindScale and klTracerScale. 64
// members start from one state and differ only in their forcing; after
// 150 steps their SST and eta spread (the mean over cells of the members'
// standard deviation) must be within 15 % of what the smoothed per-cell
// forcing the KL field replaced gave. SST spread comes from ftr alone and
// eta spread from the wind alone, so each scale sets one. The old field's
// correlation length was fixed in cells and the KL field's is fixed by
// the domain, so no one scale matches every grid: the constants split
// the difference between the benchmark's grid and the twin experiment's.
func TestForcedSpreadCalibrated(t *testing.T) {
	// The old forcing's spreads, measured at commit 65406c3 by this
	// protocol with 256 members (noise seeds 1000-1255).
	cases := []struct {
		nx, ny, nz int
		sst, eta   float64
	}{
		{32, 32, 6, 4.02815e-4, 6.38258e-6},
		{14, 14, 4, 6.52176e-4, 1.07056e-5},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(grid.MontereyBay(tc.nx, tc.ny, tc.nz))
		sst, eta := forcedSpread(cfg, 64, 150)
		for _, q := range []struct {
			name      string
			got, want float64
		}{{"SST", sst, tc.sst}, {"eta", eta, tc.eta}} {
			if r := q.got / q.want; math.Abs(r-1) > 0.15 || math.IsNaN(r) {
				t.Errorf("%dx%dx%d: forced %s spread %.4g, %.3f of the old forcing's %.4g", tc.nx, tc.ny, tc.nz, q.name, q.got, r, q.want)
			}
		}
	}
}

// forcedSpread runs members models from the climatology of rng seed 1,
// on noise seeds 1000, 1001, …, for steps steps, and returns the mean
// over cells of the members' standard deviation of SST and of eta.
func forcedSpread(cfg Config, members, steps int) (sst, eta float64) {
	init := New(cfg, rng.New(1)).State(nil)
	n2 := cfg.Grid.N2()
	sum, sum2 := make([]float64, 2*n2), make([]float64, 2*n2)
	for mem := 0; mem < members; mem++ {
		m := NewFromState(cfg, rng.New(1000+uint64(mem)), init)
		m.Run(steps)
		for id, v := range append(m.t[:n2:n2], m.eta...) {
			sum[id] += v
			sum2[id] += v * v
		}
	}
	k := float64(members)
	for id := range sum {
		mean := sum[id] / k
		sd := math.Sqrt(math.Max(sum2[id]/k-mean*mean, 0) * k / (k - 1))
		if id < n2 {
			sst += sd / float64(n2)
		} else {
			eta += sd / float64(n2)
		}
	}
	return sst, eta
}

// TestTracerMaxPrinciple: with no tracer forcing, a step of T and S is a
// weighted mean of each cell and its neighbours with non-negative
// weights, so no level leaves the [min, max] it started with — not by
// one rounding, over 2000 steps of a wind-driven flow.
func TestTracerMaxPrinciple(t *testing.T) {
	cfg := DefaultConfig(grid.MontereyBay(16, 16, 4))
	cfg.NoiseTracer = 0
	m := New(cfg, rng.New(21))
	n2 := cfg.Grid.N2()
	type bounds struct{ lo, hi float64 }
	levels := func() []bounds {
		var out []bounds
		for _, tr := range [][]float64{m.t, m.s} {
			for k := 0; k < cfg.Grid.NZ; k++ {
				b := bounds{math.Inf(1), math.Inf(-1)}
				for _, v := range tr[k*n2 : (k+1)*n2] {
					b.lo, b.hi = math.Min(b.lo, v), math.Max(b.hi, v)
				}
				out = append(out, b)
			}
		}
		return out
	}
	init := levels()
	for n := 1; n <= 2000; n++ {
		m.Step()
		for l, b := range levels() {
			if b.lo < init[l].lo || b.hi > init[l].hi || math.IsNaN(b.lo+b.hi) {
				t.Fatalf("step %d: tracer level %d spans [%v, %v], outside its initial [%v, %v]", n, l, b.lo, b.hi, init[l].lo, init[l].hi)
			}
		}
	}
}

func abs(i int) int {
	if i < 0 {
		return -i
	}
	return i
}

// TestNewFromStateMatchesNewSetState pins the member constructor: skipping
// the climatology changes nothing a forecast can see. Nor do steps taken
// before SetState: it drops their pending tracer flow and count, which
// kept would put the first tracer step early and on their flow too. The
// stepped model gets a fresh stream so that only what it carries differs;
// the unstepped one keeps New's, so New's climatology must leave the
// stream where NewFromState does.
func TestNewFromStateMatchesNewSetState(t *testing.T) {
	cfg := DefaultConfig(grid.MontereyBay(16, 12, 4))
	spun := New(cfg, rng.New(3))
	spun.Run(25)
	initial := spun.State(nil)

	for _, before := range []int{0, 3} {
		a := New(cfg, rng.New(9))
		for range before {
			a.Step()
		}
		if before > 0 {
			a.noise = rng.New(9)
		}
		a.SetState(initial)
		b := NewFromState(cfg, rng.New(9), initial)
		a.Run(60)
		b.Run(60)
		requireBitEqual(t, b.State(nil), a.State(nil))
	}
}

// maxDiffAndRange returns max |got − want| and the range of want, or its
// largest magnitude where want is constant (a grid with one interior
// cell).
func maxDiffAndRange(got, want []float64) (diff, span float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, w := range want {
		diff = math.Max(diff, math.Abs(got[i]-w))
		lo, hi = math.Min(lo, w), math.Max(hi, w)
	}
	if hi == lo {
		return diff, math.Abs(hi)
	}
	return diff, hi - lo
}

// requireBitEqual fails unless got and want are finite and equal to the
// last bit (a NaN would compare equal by bits and pin nothing).
func requireBitEqual(t *testing.T, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(want[i]) || math.IsInf(want[i], 0) {
			t.Fatalf("state[%d] = %v: the run left the finite range", i, want[i])
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("state[%d] = %v (%#x), want %v (%#x)", i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestValidateRejections(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		set  func(c *Config, bad float64)
	}{
		{"Dt", func(c *Config, bad float64) { c.Dt = bad }},
		{"Dx", func(c *Config, bad float64) { c.Grid.Dx = bad }},
		{"Dy", func(c *Config, bad float64) { c.Grid.Dy = bad }},
	}
	for _, tc := range cases {
		for _, bad := range []float64{0, -1, nan, inf} {
			cfg := DefaultConfig(grid.MontereyBay(8, 8, 2))
			tc.set(&cfg, bad)
			err := New(cfg, rng.New(1)).Validate()
			if err == nil {
				t.Errorf("Validate accepted %s = %v", tc.name, bad)
			} else if !strings.Contains(err.Error(), tc.name) {
				t.Errorf("%s = %v rejected without naming the field: %v", tc.name, bad, err)
			}
		}
	}
}

// TestStepDoesNotAllocate holds the serial kernels to zero allocations
// per step at the sizes the Step benchmarks run.
func TestStepDoesNotAllocate(t *testing.T) {
	for _, n := range []int{16, 32, 48} {
		m := New(DefaultConfig(grid.MontereyBay(n, n, 6)), rng.New(1))
		if allocs := testing.AllocsPerRun(20, m.Step); allocs != 0 {
			t.Errorf("Step on %dx%dx6 allocates %v times, want 0", n, n, allocs)
		}
	}
}

func BenchmarkStep16x16(b *testing.B) {
	m := testModel(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

func BenchmarkStep32x32(b *testing.B) {
	g := grid.MontereyBay(32, 32, 6)
	m := New(DefaultConfig(g), rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

// stepReference is Step as it stood before the row kernels and before
// re-pin 3 — every operand addressed through grid.Idx2, the Laplacian a
// function, the per-level decay recomputed, the upwind difference chosen
// by a branch and divided by the spacing — kept verbatim as the oracle.
// It takes the step's forcing from fx, fy and ftr as the caller left
// them, so it runs on the forcing Step draws.
func (m *Model) stepReference() {
	g := m.Cfg.Grid
	dt := m.Cfg.Dt
	dx, dy := g.Dx, g.Dy
	f := coriolis
	r := bottomFriction
	nu := m.nu

	// --- Momentum update (forward step with current eta) ---
	for j := 1; j < g.NY-1; j++ {
		for i := 1; i < g.NX-1; i++ {
			id := g.Idx2(i, j)
			ddxEta := (m.eta[g.Idx2(i+1, j)] - m.eta[g.Idx2(i-1, j)]) / (2 * dx)
			ddyEta := (m.eta[g.Idx2(i, j+1)] - m.eta[g.Idx2(i, j-1)]) / (2 * dy)
			// Nonlinear advection (centered).
			dudx := (m.u[g.Idx2(i+1, j)] - m.u[g.Idx2(i-1, j)]) / (2 * dx)
			dudy := (m.u[g.Idx2(i, j+1)] - m.u[g.Idx2(i, j-1)]) / (2 * dy)
			dvdx := (m.v[g.Idx2(i+1, j)] - m.v[g.Idx2(i-1, j)]) / (2 * dx)
			dvdy := (m.v[g.Idx2(i, j+1)] - m.v[g.Idx2(i, j-1)]) / (2 * dy)
			lapU := laplacianReference(m.u, g, i, j, dx, dy)
			lapV := laplacianReference(m.v, g, i, j, dx, dy)
			adv := m.u[id]*dudx + m.v[id]*dudy
			m.newU[id] = m.u[id] + dt*(-physics.Gravity*ddxEta+f*m.v[id]-r*m.u[id]-adv+nu*lapU+m.fx[id])
			adv = m.u[id]*dvdx + m.v[id]*dvdy
			m.newV[id] = m.v[id] + dt*(-physics.Gravity*ddyEta-f*m.u[id]-r*m.v[id]-adv+nu*lapV+m.fy[id])
		}
	}
	applyClosedBoundary(m.newU, g)
	applyClosedBoundary(m.newV, g)

	// --- Continuity update (backward step with the new velocities) ---
	h := meanDepth
	for j := 1; j < g.NY-1; j++ {
		for i := 1; i < g.NX-1; i++ {
			id := g.Idx2(i, j)
			div := (m.newU[g.Idx2(i+1, j)]-m.newU[g.Idx2(i-1, j)])/(2*dx) +
				(m.newV[g.Idx2(i, j+1)]-m.newV[g.Idx2(i, j-1)])/(2*dy)
			m.newEta[id] = m.eta[id] - dt*h*div
		}
	}
	zeroGradientBoundary(m.newEta, g)
	m.eta, m.newEta = m.newEta, m.eta
	m.u, m.newU = m.newU, m.u
	m.v, m.newV = m.newV, m.v

	// --- Tracer updates, level by level ---
	m.stepTracerReference(m.t, true)
	m.stepTracerReference(m.s, false)

	m.time += dt
}

// stepTracerReference advances one 3-D tracer with upwind advection by the
// depth-attenuated flow, diffusion, and (for temperature) stochastic
// surface forcing.
func (m *Model) stepTracerReference(tr []float64, isTemp bool) {
	g := m.Cfg.Grid
	dt := m.Cfg.Dt
	dx, dy := g.Dx, g.Dy
	kappa := m.kappa
	n2 := g.N2()
	for k := 0; k < g.NZ; k++ {
		decay := math.Exp(-g.Depths[k] / ekmanDepth)
		slab := tr[k*n2 : (k+1)*n2]
		out := m.newTr
		for j := 1; j < g.NY-1; j++ {
			for i := 1; i < g.NX-1; i++ {
				id := g.Idx2(i, j)
				uu := m.u[id] * decay
				vv := m.v[id] * decay
				// First-order upwind advection.
				var ddxT, ddyT float64
				if uu >= 0 {
					ddxT = (slab[id] - slab[g.Idx2(i-1, j)]) / dx
				} else {
					ddxT = (slab[g.Idx2(i+1, j)] - slab[id]) / dx
				}
				if vv >= 0 {
					ddyT = (slab[id] - slab[g.Idx2(i, j-1)]) / dy
				} else {
					ddyT = (slab[g.Idx2(i, j+1)] - slab[id]) / dy
				}
				lap := laplacianReference(slab, g, i, j, dx, dy)
				val := slab[id] + dt*(-uu*ddxT-vv*ddyT+kappa*lap)
				if isTemp && k == 0 {
					val += m.ftr[id]
				}
				out[id] = val
			}
		}
		// Copy interior back; boundary gets zero-gradient.
		for j := 1; j < g.NY-1; j++ {
			row := out[j*g.NX : (j+1)*g.NX]
			copy(slab[j*g.NX+1:(j+1)*g.NX-1], row[1:g.NX-1])
		}
		zeroGradientBoundary(slab, g)
	}
}

func laplacianReference(field []float64, g *grid.Grid, i, j int, dx, dy float64) float64 {
	id := g.Idx2(i, j)
	return (field[g.Idx2(i+1, j)]-2*field[id]+field[g.Idx2(i-1, j)])/(dx*dx) +
		(field[g.Idx2(i, j+1)]-2*field[id]+field[g.Idx2(i, j-1)])/(dy*dy)
}

// Time returns the model time in seconds since initialization.
func (m *Model) Time() float64 { return m.time }

// StateDim returns the packed state dimension.
func (m *Model) StateDim() int { return m.Layout.Dim() }

// Energy returns the total (kinetic + potential) shallow-water energy,
// a bounded diagnostic used by stability tests.
func (m *Model) Energy() float64 {
	g := m.Cfg.Grid
	e := 0.0
	for id := 0; id < g.N2(); id++ {
		e += 0.5*meanDepth*(m.u[id]*m.u[id]+m.v[id]*m.v[id]) +
			0.5*physics.Gravity*m.eta[id]*m.eta[id]
	}
	return e * g.Dx * g.Dy
}
