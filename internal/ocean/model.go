// Package ocean implements the stochastic dynamical ocean model that
// stands in for the paper's HOPS primitive-equation code (`pemodel`).
//
// The model couples a nonlinear shallow-water layer (sea-surface height
// eta and depth-averaged currents u, v, with momentum advection,
// Coriolis, bottom friction and lateral viscosity) to 3-D temperature and
// salinity tracers advected by the depth-attenuated flow, with horizontal
// diffusion. Stochastic wind-stress and surface-tracer forcing enter as
// Wiener increments (the dη term of equation B1a in the paper), so every
// ensemble member integrates a genuinely stochastic PDE.
//
// The state vector packs [eta, u, v, T(×NZ), S(×NZ)] through
// grid.StateLayout; ESSE perturbs, propagates and assimilates exactly
// this vector.
package ocean

import (
	"fmt"
	"math"

	"esse/internal/grid"
	"esse/internal/physics"
	"esse/internal/rng"
)

// Config collects the parameters callers vary. The physical parameters
// have one value in every run and no field: they are the package values
// below, and stableStep's viscosity and diffusivity.
type Config struct {
	Grid *grid.Grid
	// Dt is the time step in seconds.
	Dt float64
	// NoiseWind scales the stochastic wind, a Wiener increment (m/s^1.5):
	// a step adds to each component a smooth random field (sampleForcing)
	// of amplitude NoiseWind·√Dt/Dt in m/s², not a per-cell variance.
	NoiseWind float64
	// NoiseTracer scales the stochastic surface temperature forcing the
	// same way (°C/√s): a field of amplitude NoiseTracer·√(K·Dt) a tracer
	// step, which spans K dynamics steps (see Step).
	NoiseTracer float64
	// Climo parameterizes the initial mesoscale state (eddy + front).
	Climo ClimatologyParams
}

// The physical parameters of the model.
const (
	// meanDepth is the resting layer depth H (m) of the shallow-water core.
	meanDepth = 50.0
	// bottomFriction is the linear drag coefficient r (1/s).
	bottomFriction = 2e-6
	// windAmp is the steady wind-stress acceleration amplitude (m/s²).
	windAmp = 1e-6
	// ekmanDepth is the e-folding depth (m) of the velocity that advects
	// the 3-D tracers.
	ekmanDepth = 80.0
)

// coriolis is the Coriolis parameter f (1/s) at Monterey Bay.
var coriolis = physics.Coriolis(36.6)

// stableStep returns DefaultConfig's time step for grid g, well inside
// the gravity-wave CFL bound, and the momentum's lateral eddy viscosity
// and the tracers' horizontal diffusivity (m²/s), scaled to that step to
// stay mild. A model's viscosity and diffusivity are these whatever its
// Dt.
func stableStep(g *grid.Grid) (dt, viscosity, diffusivity float64) {
	c := math.Sqrt(physics.Gravity * meanDepth)
	minDx := math.Min(g.Dx, g.Dy)
	dt = 0.2 * minDx / c
	return dt, 0.01 * minDx * minDx / dt / 8, 0.005 * minDx * minDx / dt / 8
}

// ClimatologyParams positions the initial mesoscale features: a
// warm-core eddy and a coastal upwelling front. Jittering these
// parameters across realizations produces the structured, temperature-
// dominant initial-condition uncertainty of a real coastal forecast
// (the error fields mapped in the paper's Figs. 5 and 6 concentrate on
// exactly such features).
type ClimatologyParams struct {
	// EddyCXFrac, EddyCYFrac place the eddy center (fractions of NX, NY).
	EddyCXFrac, EddyCYFrac float64
	// EddyRadiusFrac sets the eddy radius as a fraction of min(NX, NY).
	EddyRadiusFrac float64
	// EddyAmpT is the eddy core temperature anomaly (degC).
	EddyAmpT float64
	// EddyAmpSSH is the eddy sea-surface height anomaly (m).
	EddyAmpSSH float64
	// FrontAmpT is the upwelling front temperature anomaly (degC,
	// negative = cold).
	FrontAmpT float64
	// FrontWidthFrac is the front e-folding width (fraction of NX).
	FrontWidthFrac float64
}

// DefaultClimatology returns the reference Monterey-Bay-like setup.
func DefaultClimatology() ClimatologyParams {
	return ClimatologyParams{
		EddyCXFrac:     0.55,
		EddyCYFrac:     0.45,
		EddyRadiusFrac: 0.18,
		EddyAmpT:       1.2,
		EddyAmpSSH:     0.08,
		FrontAmpT:      -1.5,
		FrontWidthFrac: 0.15,
	}
}

// Jitter returns a randomly perturbed copy of the climatology — an
// initial-condition realization for building the initial error subspace.
func (p ClimatologyParams) Jitter(s *rng.Stream) ClimatologyParams {
	out := p
	out.EddyCXFrac += 0.08 * s.Norm()
	out.EddyCYFrac += 0.08 * s.Norm()
	out.EddyRadiusFrac *= 1 + 0.15*s.Norm()
	if out.EddyRadiusFrac < 0.05 {
		out.EddyRadiusFrac = 0.05
	}
	out.EddyAmpT *= 1 + 0.25*s.Norm()
	out.EddyAmpSSH *= 1 + 0.25*s.Norm()
	out.FrontAmpT *= 1 + 0.25*s.Norm()
	out.FrontWidthFrac *= 1 + 0.15*s.Norm()
	if out.FrontWidthFrac < 0.05 {
		out.FrontWidthFrac = 0.05
	}
	return out
}

// DefaultConfig returns a numerically stable configuration for grid g
// sized for the mesoscale window (days, kilometers) the paper studies.
func DefaultConfig(g *grid.Grid) Config {
	dt, _, _ := stableStep(g)
	return Config{
		Grid:        g,
		Dt:          dt,
		NoiseWind:   2e-7,
		NoiseTracer: 2e-5,
		Climo:       DefaultClimatology(),
	}
}

// Vars is the canonical state variable list of the model.
func Vars(g *grid.Grid) []grid.VarSpec {
	return []grid.VarSpec{
		{Name: "eta", Levels: 1},
		{Name: "u", Levels: 1},
		{Name: "v", Levels: 1},
		{Name: "T", Levels: g.NZ},
		{Name: "S", Levels: g.NZ},
	}
}

// Model is one realization of the stochastic ocean model. It is not safe
// for concurrent use; ensemble members each own a Model (and an
// independent rng stream).
type Model struct {
	Cfg    Config
	Layout *grid.StateLayout

	eta  []float64 // n2, m
	u, v []float64 // n2, m/s
	t    []float64 // n3, °C
	s    []float64 // n3, psu

	noise *rng.Stream
	time  float64

	// every is K, the dynamics steps a tracer step spans (tracerEvery;
	// tests build other values through newModel). pending counts the
	// dynamics steps since the last tracer step, and uSum, vSum sum their
	// surface flow.
	every, pending int
	uSum, vSum     []float64

	// scratch buffers reused across steps. newTr is shared between the
	// temperature and salinity sweeps.
	newEta     []float64
	newU, newV []float64
	newTr      []float64
	fx, fy     []float64
	ftr        []float64
	// pw, pe, ps, pn are the upwind weights of the summed flow
	// (upwindWeights), shared by every sweep of a tracer step.
	pw, pe, ps, pn []float64

	// nu and kappa are the viscosity and diffusivity stableStep gives
	// the grid, and decay[k] the e-folding attenuation of the flow at
	// level k that advects the tracers, fixed by the grid and ekmanDepth.
	nu, kappa float64
	decay     []float64
	// klX and klY tabulate the forcing's cosine modes on each axis; z
	// holds the coefficients for fx, fy and ftr in turn, and zScale the
	// amplitude and spectral weight of each.
	klX, klY  [][klModes]float64
	z, zScale [3 * klCoeffs]float64
	// level is the sweep tracerRows runs, set before each sweep.
	level tracerLevel
}

// New builds a model with the climatological initial state: linear
// stratification plus a mesoscale eddy in sea-surface height and an
// upwelling-like temperature front, roughly matching the Monterey Bay
// situation of the paper's Section 6.
func New(cfg Config, noise *rng.Stream) *Model {
	m := newModel(cfg, noise, tracerEvery)
	m.initClimatology()
	return m
}

// NewFromState builds a model whose initial fields are the packed state
// vector: New followed by SetState, without computing the climatology
// that SetState would overwrite. Ensemble members start this way.
func NewFromState(cfg Config, noise *rng.Stream, state []float64) *Model {
	m := newModel(cfg, noise, tracerEvery)
	m.SetState(state)
	return m
}

// newModel allocates a model with all fields zero whose tracers step
// every `every` dynamics steps; the tracer forcing's amplitude is formed
// for that span.
func newModel(cfg Config, noise *rng.Stream, every int) *Model {
	if cfg.Grid == nil {
		panic("ocean: Config.Grid is nil")
	}
	if noise == nil {
		noise = rng.New(0)
	}
	g := cfg.Grid
	m := &Model{
		Cfg:    cfg,
		Layout: grid.NewLayout(g, Vars(g)),
		eta:    make([]float64, g.N2()),
		u:      make([]float64, g.N2()),
		v:      make([]float64, g.N2()),
		t:      make([]float64, g.N3()),
		s:      make([]float64, g.N3()),
		noise:  noise,
		every:  every,
		uSum:   make([]float64, g.N2()),
		vSum:   make([]float64, g.N2()),
		newEta: make([]float64, g.N2()),
		newU:   make([]float64, g.N2()),
		newV:   make([]float64, g.N2()),
		newTr:  make([]float64, g.N2()),
		fx:     make([]float64, g.N2()),
		fy:     make([]float64, g.N2()),
		ftr:    make([]float64, g.N2()),
		pw:     make([]float64, g.N2()),
		pe:     make([]float64, g.N2()),
		ps:     make([]float64, g.N2()),
		pn:     make([]float64, g.N2()),
		decay:  make([]float64, g.NZ),
		klX:    cosineModes(g.NX),
		klY:    cosineModes(g.NY),
	}
	_, m.nu, m.kappa = stableStep(g)
	for k := range m.decay {
		m.decay[k] = math.Exp(-g.Depths[k] / ekmanDepth)
	}
	// Validate rejects non-positive Dt; the clamps keep the Sqrts
	// NaN-free even on unvalidated configs.
	sqrtDt := math.Sqrt(math.Max(cfg.Dt, 0))
	wind := klWindScale * cfg.NoiseWind * sqrtDt / cfg.Dt // acceleration equivalent
	tracer := klTracerScale * cfg.NoiseTracer * math.Sqrt(math.Max(float64(every)*cfg.Dt, 0))
	amp := [3]float64{wind, wind, tracer}
	for n := range m.zScale {
		a, b := n/klModes%klModes, n%klModes
		m.zScale[n] = amp[n/klCoeffs] * math.Pow(float64(a+b+1), -klDecay)
	}
	return m
}

// cosineModes tabulates cos(π a (i−½)/(n−2)), a < klModes, on the n
// points of an axis. Each mode is symmetric about the first and the last
// edge, so a field built from them repeats the interior's outermost
// values on the edge: the zero-gradient closure of the tracers.
func cosineModes(n int) [][klModes]float64 {
	tab := make([][klModes]float64, n)
	span := float64(max(n-2, 1)) // the 2- and 1-point axes have no interior to span
	for i := range tab {
		for a := range tab[i] {
			tab[i][a] = math.Cos(math.Pi * float64(a) * (float64(i) - 0.5) / span)
		}
	}
	return tab
}

func (m *Model) initClimatology() {
	g := m.Cfg.Grid
	maxD := g.Depths[g.NZ-1]
	if maxD == 0 {
		maxD = 1
	}
	p := m.Cfg.Climo
	if p == (ClimatologyParams{}) {
		p = DefaultClimatology()
	}
	cx, cy := float64(g.NX)*p.EddyCXFrac, float64(g.NY)*p.EddyCYFrac
	// The clamp keeps the eddy shape well-defined even for degenerate
	// grids or a zero radius fraction: without it, dx/rad at the eddy
	// center is 0/0 = NaN and seeds the whole temperature field with it.
	rad := math.Max(float64(min(g.NX, g.NY))*p.EddyRadiusFrac, 1e-9)
	for k := 0; k < g.NZ; k++ {
		frac := g.Depths[k] / maxD
		baseT := 16 - 9*frac // 16°C at surface to 7°C at depth
		baseS := 33.3 + 0.9*frac
		decay := m.decay[k]
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				idx := g.Idx3(i, j, k)
				// Coastal upwelling front: colder near the eastern edge.
				front := p.FrontAmpT * decay * math.Exp(-math.Pow(float64(g.NX-1-i)/(p.FrontWidthFrac*float64(g.NX)), 2))
				// Warm-core eddy.
				dx := (float64(i) - cx) / rad
				dy := (float64(j) - cy) / rad
				eddy := p.EddyAmpT * decay * math.Exp(-(dx*dx + dy*dy))
				m.t[idx] = baseT + front + eddy
				m.s[idx] = baseS - 0.05*eddy
			}
		}
	}
	// Geostrophically-consistent SSH for the eddy (warm core → high SSH).
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			dx := (float64(i) - cx) / rad
			dy := (float64(j) - cy) / rad
			m.eta[g.Idx2(i, j)] = p.EddyAmpSSH * math.Exp(-(dx*dx + dy*dy))
		}
	}
}

// State packs the current model fields into dst (allocated if nil). It
// first catches the tracers up, as Run's end does, so a model stepped
// with Step alone packs tracers at the model time.
func (m *Model) State(dst []float64) []float64 {
	m.catchUp(1)
	if dst == nil {
		dst = make([]float64, m.Layout.Dim())
	}
	copy(m.Layout.SliceByName(dst, "eta"), m.eta)
	copy(m.Layout.SliceByName(dst, "u"), m.u)
	copy(m.Layout.SliceByName(dst, "v"), m.v)
	copy(m.Layout.SliceByName(dst, "T"), m.t)
	copy(m.Layout.SliceByName(dst, "S"), m.s)
	return dst
}

// SetState loads a packed state vector into the model fields. The flow
// of steps taken before it is dropped: the next tracer step spans only
// the steps after it.
func (m *Model) SetState(state []float64) {
	m.pending = 0
	clear(m.uSum)
	clear(m.vSum)
	copy(m.eta, m.Layout.SliceByName(state, "eta"))
	copy(m.u, m.Layout.SliceByName(state, "u"))
	copy(m.v, m.Layout.SliceByName(state, "v"))
	copy(m.t, m.Layout.SliceByName(state, "T"))
	copy(m.s, m.Layout.SliceByName(state, "S"))
}

// CFLNumber returns the gravity-wave CFL number c·dt/min(dx,dy); values
// below ~0.7 are stable for the forward-backward scheme.
func (m *Model) CFLNumber() float64 {
	c := math.Sqrt(physics.Gravity * meanDepth)
	return c * m.Cfg.Dt / math.Min(m.Cfg.Grid.Dx, m.Cfg.Grid.Dy)
}

// Step advances the dynamics by one time step Dt: the forcing draw, then
// the momentum and continuity sweeps over the interior rows, with the
// boundary closure after each. The tracers T and S are on a clock of
// their own: every K = tracerEvery steps, Step ends with one tracer step
// of K·Dt on the surface flow summed over those steps, a sweep of every
// level of each. Between tracer steps T and S lag the dynamics; the end
// of Run and State catch them up with a partial step.
//
// The sweeps are row kernels over a row range so that StepParallel can
// run the same code on bands. Within a commit a forecast is a pure
// function of (seed, config) to the bit. The kernels are re-pin 3 and
// the tracer clock re-pin 4 (see DESIGN "Re-pinning"): stepReference in
// model_test.go, the cell-indexed stepper from before them, run on the
// same forcing, is the oracle, and TestStepBitIdenticalToReference holds
// Step at K = 1 to it.
func (m *Model) Step() { m.step(1) }

// step is Step with every sweep on `tasks` bands of rows.
func (m *Model) step(tasks int) {
	m.sampleForcing()
	m.sweep(tasks, (*Model).momentumRows)
	m.closeVelocities()
	m.sweep(tasks, (*Model).continuityRows)
	m.commitDynamics()
	if m.pending == m.every {
		m.stepTracers(tasks)
	}
	m.time += m.Cfg.Dt
}

// stepTracers takes the tracer step over the m.pending dynamics steps
// since the last one: the upwind weights of their summed flow, then
// every level of T and S.
func (m *Model) stepTracers(tasks int) {
	m.upwindWeights()
	for n, tr := range [2][]float64{m.t, m.s} {
		for k := range m.decay {
			m.level = tracerLevel{tr, k, n == 0 && k == 0}
			m.sweep(tasks, (*Model).tracerRows)
			m.commitLevel(tr, k)
		}
	}
	m.pending = 0
}

// catchUp takes a partial tracer step over the p < K dynamics steps since
// the last tracer step, if there are any. Its forcing is drawn now, at
// √(p/K) of a full tracer step's amplitude: a Wiener increment over p·Dt.
func (m *Model) catchUp(tasks int) {
	if m.pending == 0 {
		return
	}
	m.drawTracer(math.Sqrt(float64(m.pending) / float64(m.every)))
	m.stepTracers(tasks)
}

// tracerLevel names a tracerRows sweep: level k of tracer tr, and whether
// it takes the surface forcing. It reaches the bands through the model,
// written before the spawn, so that stepping allocates no closure per
// level.
type tracerLevel struct {
	tr     []float64
	k      int
	forced bool
}

// row returns row j of a horizontal field, resliced to exactly nx so the
// cell loops index it without bounds checks.
func row(field []float64, j, nx int) []float64 { return field[j*nx:][:nx] }

// rows returns row j of a horizontal field with its south and north
// neighbours.
func rows(field []float64, j, nx int) (c, s, n []float64) {
	return row(field, j, nx), row(field, j-1, nx), row(field, j+1, nx)
}

// momentumRows is the forward momentum step with the current eta on the
// interior rows of [jLo, jHi): pressure gradient, Coriolis, bottom
// friction, centered nonlinear advection, lateral viscosity and forcing.
func (m *Model) momentumRows(jLo, jHi int) {
	g := m.Cfg.Grid
	nx := g.NX
	dt, f, r, nu := m.Cfg.Dt, coriolis, bottomFriction, m.nu
	twoDx, twoDy, dx2, dy2 := 2*g.Dx, 2*g.Dy, g.Dx*g.Dx, g.Dy*g.Dy
	for j := max(jLo, 1); j < min(jHi, g.NY-1); j++ {
		ec, es, en := rows(m.eta, j, nx)
		uc, us, un := rows(m.u, j, nx)
		vc, vs, vn := rows(m.v, j, nx)
		fx := row(m.fx, j, nx)
		fy := row(m.fy, j, nx)
		newU := row(m.newU, j, nx)
		newV := row(m.newV, j, nx)
		for i := 1; i < nx-1; i++ {
			u, v := uc[i], vc[i]
			ddxEta := (ec[i+1] - ec[i-1]) / twoDx
			ddyEta := (en[i] - es[i]) / twoDy
			dudx := (uc[i+1] - uc[i-1]) / twoDx
			dudy := (un[i] - us[i]) / twoDy
			dvdx := (vc[i+1] - vc[i-1]) / twoDx
			dvdy := (vn[i] - vs[i]) / twoDy
			lapU := (uc[i+1]-2*u+uc[i-1])/dx2 + (un[i]-2*u+us[i])/dy2
			lapV := (vc[i+1]-2*v+vc[i-1])/dx2 + (vn[i]-2*v+vs[i])/dy2
			adv := u*dudx + v*dudy
			newU[i] = u + dt*(-physics.Gravity*ddxEta+f*v-r*u-adv+nu*lapU+fx[i])
			adv = u*dvdx + v*dvdy
			newV[i] = v + dt*(-physics.Gravity*ddyEta-f*u-r*v-adv+nu*lapV+fy[i])
		}
	}
}

// closeVelocities zeroes the new velocities on the domain edge.
func (m *Model) closeVelocities() {
	applyClosedBoundary(m.newU, m.Cfg.Grid)
	applyClosedBoundary(m.newV, m.Cfg.Grid)
}

// continuityRows is the backward continuity step with the new velocities
// on the interior rows of [jLo, jHi).
func (m *Model) continuityRows(jLo, jHi int) {
	g := m.Cfg.Grid
	nx := g.NX
	dt, h := m.Cfg.Dt, meanDepth
	twoDx, twoDy := 2*g.Dx, 2*g.Dy
	for j := max(jLo, 1); j < min(jHi, g.NY-1); j++ {
		uc := row(m.newU, j, nx)
		vs, vn := row(m.newV, j-1, nx), row(m.newV, j+1, nx)
		eta := row(m.eta, j, nx)
		newEta := row(m.newEta, j, nx)
		for i := 1; i < nx-1; i++ {
			div := (uc[i+1]-uc[i-1])/twoDx + (vn[i]-vs[i])/twoDy
			newEta[i] = eta[i] - dt*h*div
		}
	}
}

// upwindWeights forms the share of each neighbour a cell takes in a
// tracer step of first-order upwind advection by the summed surface flow,
// and clears the sums: pw, pe = Dt·max(±Σu, 0)/dx from the west and the
// east, ps, pn the same with Σv and dy. That is the step's span p·Dt
// times the mean flow, with no division. A level scales them by its flow
// attenuation, which is positive.
func (m *Model) upwindWeights() {
	g := m.Cfg.Grid
	ax, ay := m.Cfg.Dt/g.Dx, m.Cfg.Dt/g.Dy
	n := len(m.uSum)
	pw, pe, ps, pn, vSum := m.pw[:n], m.pe[:n], m.ps[:n], m.pn[:n], m.vSum[:n]
	for id, u := range m.uSum {
		v := vSum[id]
		pw[id], pe[id] = ax*max(u, 0), ax*max(-u, 0)
		ps[id], pn[id] = ay*max(v, 0), ay*max(-v, 0)
		m.uSum[id], vSum[id] = 0, 0
	}
}

// tracerRows advances the level m.level names over the tracer step's
// span into newTr on the interior rows of [jLo, jHi): first-order upwind
// advection by the depth-attenuated flow, diffusion and, when forced, the
// stochastic surface forcing. A cell's new value is a weighted sum of its
// own and its four neighbours' with no division and no branch.
func (m *Model) tracerRows(jLo, jHi int) {
	tr, k, forced := m.level.tr, m.level.k, m.level.forced
	g := m.Cfg.Grid
	nx, n2 := g.NX, g.N2()
	decay := m.decay[k]
	dt := float64(m.pending) * m.Cfg.Dt
	cx, cy := dt*m.kappa/(g.Dx*g.Dx), dt*m.kappa/(g.Dy*g.Dy)
	slab := tr[k*n2 : (k+1)*n2]
	for j := max(jLo, 1); j < min(jHi, g.NY-1); j++ {
		c, s, n := rows(slab, j, nx)
		pw, pe := row(m.pw, j, nx), row(m.pe, j, nx)
		ps, pn := row(m.ps, j, nx), row(m.pn, j, nx)
		out := row(m.newTr, j, nx)
		for i := 1; i < nx-1; i++ {
			t, w, e, so, no := c[i], c[i-1], c[i+1], s[i], n[i]
			adv := pw[i]*(w-t) + pe[i]*(e-t) + ps[i]*(so-t) + pn[i]*(no-t)
			out[i] = t + decay*adv + cx*(w+e-2*t) + cy*(so+no-2*t)
		}
		if forced {
			ftr := row(m.ftr, j, nx)
			for i := 1; i < nx-1; i++ {
				out[i] += ftr[i]
			}
		}
	}
}

// commitDynamics closes the new eta, makes the new eta, u, v current and
// adds the new u, v into the flow the next tracer step is taken on.
func (m *Model) commitDynamics() {
	zeroGradientBoundary(m.newEta, m.Cfg.Grid)
	m.eta, m.newEta = m.newEta, m.eta
	m.u, m.newU = m.newU, m.u
	m.v, m.newV = m.newV, m.v
	uSum, vSum, v := m.uSum[:len(m.u)], m.vSum[:len(m.u)], m.v[:len(m.u)]
	for id, u := range m.u {
		uSum[id] += u
		vSum[id] += v[id]
	}
	m.pending++
}

// commitLevel copies the interior of newTr back into level k of tr and
// gives the edge a zero gradient.
func (m *Model) commitLevel(tr []float64, k int) {
	g := m.Cfg.Grid
	nx, n2 := g.NX, g.N2()
	slab := tr[k*n2 : (k+1)*n2]
	for j := 1; j < g.NY-1; j++ {
		copy(slab[j*nx+1:(j+1)*nx-1], m.newTr[j*nx+1:(j+1)*nx-1])
	}
	zeroGradientBoundary(slab, g)
}

// The stochastic forcing is a Karhunen–Loève field, the model error of
// the multilevel DA scripts (ModelErrorKL): per field and step, a
// klModes×klModes matrix Z of normals weighted by (a+b+1)^-klDecay gives
// X Z Yᵀ, X and Y the cosine modes of each axis (cosineModes). It is
// white in time, a Wiener increment: the wind's is drawn every dynamics
// step, the tracer's once per tracer step. The two scales are calibrated
// on the response: the η and SST spread of a forcing-only ensemble under
// the smoothed per-cell noise it replaced (TestForcedSpreadCalibrated).
const (
	klModes       = 5
	klCoeffs      = klModes * klModes // the normals of one field
	klDecay       = 1.25
	klWindScale   = 0.215
	klTracerScale = 0.25
)

// tracerEvery is K, the dynamics steps one tracer step spans. The flow
// that carries the tracers is about a thousand times slower than the
// gravity wave that sets Dt; at K = 5 the largest tracer weights,
// advective and diffusive, use about 1.3 % of the positivity bound
// (EXPERIMENTS "Re-pin 4").
const tracerEvery = 5

// sampleForcing draws this step's forcing: the steady wind plus a KL
// field in fx and fy, and, on a step that completes a tracer step, a KL
// field alone in ftr. NormVec is sequential Norm calls, so the tracer's
// normals drawn after the wind's are, at K = 1, the draws of a forcing
// with no clock.
func (m *Model) sampleForcing() {
	z := m.noise.NormVec(m.z[:], 2*klCoeffs)
	for i := range z {
		z[i] *= m.zScale[i]
	}
	nx := m.Cfg.Grid.NX
	wind := -windAmp // steady upwelling-favorable (equatorward)
	zx, zy := (*[klCoeffs]float64)(z), (*[klCoeffs]float64)(z[klCoeffs:])
	klX := m.klX[:nx]
	for j, y := range m.klY {
		// Row j of each field is X r with r = Z yⱼ.
		rx, ry := klRow(zx, &y), klRow(zy, &y)
		fx, fy := row(m.fx, j, nx), row(m.fy, j, nx)
		for i := range fx {
			x := &klX[i]
			fx[i], fy[i] = dot(x, &rx), wind+dot(x, &ry)
		}
	}
	if m.pending+1 == m.every {
		m.drawTracer(1)
	}
}

// drawTracer draws the tracer's KL coefficients at scale times a full
// tracer step's amplitude and forms ftr from them.
func (m *Model) drawTracer(scale float64) {
	z := m.noise.NormVec(m.z[2*klCoeffs:], klCoeffs)
	for n := range z {
		z[n] *= m.zScale[2*klCoeffs+n] * scale
	}
	nx := m.Cfg.Grid.NX
	zt := (*[klCoeffs]float64)(z)
	klX := m.klX[:nx]
	for j, y := range m.klY {
		rt := klRow(zt, &y)
		ftr := row(m.ftr, j, nx)
		for i := range ftr {
			ftr[i] = dot(&klX[i], &rt)
		}
	}
}

// klRow is Z y: the coefficients on X of a field's row at y.
func klRow(z *[klCoeffs]float64, y *[klModes]float64) (r [klModes]float64) {
	for a := range klModes {
		for b, yb := range y {
			r[a] += z[a*klModes+b] * yb
		}
	}
	return r
}

// dot is x·r, written out: klModes is 5.
func dot(x, r *[klModes]float64) float64 {
	return x[0]*r[0] + x[1]*r[1] + x[2]*r[2] + x[3]*r[3] + x[4]*r[4]
}

// Run advances the model n steps and catches the tracers up, so the
// state it leaves is at the model time whatever n is.
func (m *Model) Run(n int) { m.run(n, 1) }

// run is Run with every sweep on `tasks` bands of rows.
func (m *Model) run(n, tasks int) {
	for range n {
		m.step(tasks)
	}
	m.catchUp(tasks)
}

// Validate sanity-checks the configuration, returning an error describing
// the first problem found: a time step or grid spacing that is not a
// positive finite number, then a CFL number beyond the stability bound.
// Within that bound a tracer step's diffusive weights K·Dt·κ·(2/dx² +
// 2/dy²) are at most K·(Dt/dt₀)·0.0025 ≤ 5·3.5·0.0025 ≈ 0.044, dt₀ being
// stableStep's time step, so every cell keeps a share of its own value.
func (m *Model) Validate() error {
	g := m.Cfg.Grid
	for _, q := range []struct {
		name string
		v    float64
	}{{"Dt", m.Cfg.Dt}, {"Dx", g.Dx}, {"Dy", g.Dy}} {
		if !(q.v > 0) || math.IsInf(q.v, 0) {
			return fmt.Errorf("ocean: %s = %v, want a positive finite number", q.name, q.v)
		}
	}
	if cfl := m.CFLNumber(); cfl > 0.7 {
		return fmt.Errorf("ocean: CFL number %.3f exceeds stability bound 0.7", cfl)
	}
	return nil
}

// applyClosedBoundary zeroes a velocity component on the domain edge.
func applyClosedBoundary(field []float64, g *grid.Grid) {
	for i := 0; i < g.NX; i++ {
		field[g.Idx2(i, 0)] = 0
		field[g.Idx2(i, g.NY-1)] = 0
	}
	for j := 0; j < g.NY; j++ {
		field[g.Idx2(0, j)] = 0
		field[g.Idx2(g.NX-1, j)] = 0
	}
}

// zeroGradientBoundary copies the nearest interior value to the edge.
func zeroGradientBoundary(field []float64, g *grid.Grid) {
	for i := 1; i < g.NX-1; i++ {
		field[g.Idx2(i, 0)] = field[g.Idx2(i, 1)]
		field[g.Idx2(i, g.NY-1)] = field[g.Idx2(i, g.NY-2)]
	}
	for j := 0; j < g.NY; j++ {
		field[g.Idx2(0, j)] = field[g.Idx2(1, j)]
		field[g.Idx2(g.NX-1, j)] = field[g.Idx2(g.NX-2, j)]
	}
}
