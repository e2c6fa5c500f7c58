package acoustics

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"esse/internal/grid"
	"esse/internal/linalg"
	"esse/internal/ocean"
	"esse/internal/physics"
	"esse/internal/rng"
)

// syntheticSection builds a downward-refracting section: sound speed
// decreasing with depth (typical summer coastal profile).
func syntheticSection(nr, nz int, rMax, zMax float64) *Section {
	sec := &Section{
		Ranges: make([]float64, nr),
		Depths: make([]float64, nz),
		C:      linalg.NewDense(nr, nz),
	}
	for i := range sec.Ranges {
		sec.Ranges[i] = rMax * float64(i) / float64(nr-1)
	}
	for k := range sec.Depths {
		sec.Depths[k] = zMax * float64(k) / float64(nz-1)
	}
	for i := 0; i < nr; i++ {
		for k := 0; k < nz; k++ {
			sec.C.Set(i, k, 1500-0.05*sec.Depths[k])
		}
	}
	return sec
}

func oceanSection(t *testing.T, seed uint64) (*Section, *ocean.Model) {
	t.Helper()
	g := grid.MontereyBay(16, 16, 5)
	m := ocean.New(ocean.DefaultConfig(g), rng.New(seed))
	st := m.State(nil)
	sec, err := ExtractSection(m.Layout, st, 1, 8, 14, 8, 24)
	if err != nil {
		t.Fatal(err)
	}
	return sec, m
}

// The oracle: the TL solve as it stood before TLSolver was split into
// Trace and Field, moved here verbatim — a binary search per lookup,
// six lookups a step, Dense accessors, every range term recomputed per
// ray, and the angle form of the ray equation with a tangent a step.
// Production marches a slope over a ln c table instead (re-pin 2);
// TestTraceMatchesReference holds it to this form within stated
// tolerances, TestTraceFollowsCircularArcs holds both to the closed
// form, and TestTraceBitIdenticalToReference holds it to
// traceSlopeReference, its own arithmetic without the tables.

func (s *Section) speedAtReference(r, z float64) float64 {
	ri, rf := locate(s.Ranges, r)
	zi, zf := locate(s.Depths, z)
	c00 := s.C.At(ri, zi)
	c10 := s.C.At(ri+1, zi)
	c01 := s.C.At(ri, zi+1)
	c11 := s.C.At(ri+1, zi+1)
	return (1-rf)*(1-zf)*c00 + rf*(1-zf)*c10 + (1-rf)*zf*c01 + rf*zf*c11
}

// dCdZ estimates the vertical sound-speed gradient at (r, z).
func (s *Section) dCdZ(r, z float64) float64 {
	dz := (s.Depths[len(s.Depths)-1] - s.Depths[0]) / float64(len(s.Depths)-1)
	if dz == 0 {
		return 0
	}
	zp := math.Min(z+dz/2, s.Depths[len(s.Depths)-1])
	zm := math.Max(z-dz/2, s.Depths[0])
	if zp == zm {
		return 0
	}
	return (s.speedAtReference(r, zp) - s.speedAtReference(r, zm)) / (zp - zm)
}

// locate finds the cell index and fraction for x in the ascending grid xs.
func locate(xs []float64, x float64) (int, float64) {
	n := len(xs)
	if x <= xs[0] {
		return 0, 0
	}
	if x >= xs[n-1] {
		return n - 2, 1
	}
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if xs[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	f := (x - xs[lo]) / (xs[lo+1] - xs[lo])
	return lo, f
}

// traceReference is the old TLSolver.Compute on fresh grids, returning
// the deposit beside the field.
func traceReference(sec *Section, cfg TLConfig) (*linalg.Dense, *TLField) {
	rMax := sec.Ranges[len(sec.Ranges)-1]
	zMax := sec.Depths[len(sec.Depths)-1]
	nr, nz := cfg.RangeCells, cfg.DepthCells
	deposit := linalg.NewDense(nr, nz)
	dr := rMax / float64(nr) / 4 // 4 integration steps per output cell
	cellH := zMax / float64(nz)

	w := 1.0 / float64(cfg.NumRays)
	maxAngle := cfg.MaxAngleDeg * math.Pi / 180
	for rayI := 0; rayI < cfg.NumRays; rayI++ {
		theta := -maxAngle + 2*maxAngle*float64(rayI)/float64(cfg.NumRays-1)
		z := cfg.SourceDepth
		amp := w
		r := 0.0
		for r < rMax && amp > 1e-12 {
			c := sec.speedAtReference(r, z)
			gradC := sec.dCdZ(r, z)
			theta += -gradC / c * dr
			z += math.Tan(theta) * dr
			// Surface and bottom reflections.
			if z < 0 {
				z = -z
				theta = -theta
			}
			if z > zMax {
				z = 2*zMax - z
				theta = -theta
				amp *= math.Pow(10, -cfg.BottomLossDB/10)
			}
			if z < 0 { // pathological double reflection: clamp
				z = 0
			}
			r += dr
			ri := int(r / rMax * float64(nr))
			zi := int(z / zMax * float64(nz))
			if ri >= nr {
				ri = nr - 1
			}
			if zi >= nz {
				zi = nz - 1
			}
			if zi < 0 {
				zi = 0
			}
			deposit.Set(ri, zi, deposit.At(ri, zi)+amp)
		}
	}

	alpha := physics.ThorpAttenuation(cfg.FreqKHz) // dB/km
	out := &TLField{
		Ranges: make([]float64, nr),
		Depths: make([]float64, nz),
		TL:     linalg.NewDense(nr, nz),
	}
	for i := 0; i < nr; i++ {
		out.Ranges[i] = (float64(i) + 0.5) * rMax / float64(nr)
	}
	for k := 0; k < nz; k++ {
		out.Depths[k] = (float64(k) + 0.5) * zMax / float64(nz)
	}
	const tiny = 1e-300
	ref := 1.0 / cellH / 1.0 // all energy through 1 cell at r = 1 m
	for i := 0; i < nr; i++ {
		rr := out.Ranges[i]
		for k := 0; k < nz; k++ {
			intensity := deposit.At(i, k) / cellH / rr
			tl := -10*math.Log10((intensity+tiny)/ref) + alpha*rr/1000
			if tl > 200 {
				tl = 200 // shadow-zone floor
			}
			out.TL.Set(i, k, tl)
		}
	}
	return deposit, out
}

// traceSlopeReference is the re-pin-2 kernel written out plainly: the
// arithmetic of TLSolver.Trace, operation for operation, with none of
// its tables — a binary search per lookup, ln c and each reciprocal
// computed where it is used, Dense accessors, the range terms
// recomputed per ray. TestTraceBitIdenticalToReference holds Trace to it
// bit for bit.
func traceSlopeReference(sec *Section, cfg TLConfig) (*linalg.Dense, *TLField) {
	rMax := sec.Ranges[len(sec.Ranges)-1]
	zTop, zMax := sec.Depths[0], sec.Depths[len(sec.Depths)-1]
	nr, nz := cfg.RangeCells, cfg.DepthCells
	deposit := linalg.NewDense(nr, nz)
	dr := rMax / float64(nr) / 4 // 4 integration steps per output cell
	dz := (zMax - zTop) / float64(len(sec.Depths)-1)
	lnSpeedAt := func(r, z float64) float64 {
		ri, rf := locateByReciprocal(sec.Ranges, r)
		zi, zf := locateByReciprocal(sec.Depths, z)
		lnC := func(i, k int) float64 { return math.Log(sec.C.At(i, k)) }
		return (1-rf)*(1-zf)*lnC(ri, zi) + rf*(1-zf)*lnC(ri+1, zi) + (1-rf)*zf*lnC(ri, zi+1) + rf*zf*lnC(ri+1, zi+1)
	}

	w := 1.0 / float64(cfg.NumRays)
	maxAngle := cfg.MaxAngleDeg * math.Pi / 180
	for rayI := 0; rayI < cfg.NumRays; rayI++ {
		p := math.Tan(-maxAngle + 2*maxAngle*float64(rayI)/float64(cfg.NumRays-1))
		z := cfg.SourceDepth
		amp := w
		r := 0.0
		for r < rMax && amp > 1e-12 {
			zp, zm, rspan := z+dz/2, z-dz/2, 1/dz
			if zp > zMax || zm < zTop {
				zp, zm, rspan = min(zp, zMax), max(zm, zTop), 0
				if zp != zm {
					rspan = 1 / (zp - zm)
				}
			}
			grad := (lnSpeedAt(r, zp) - lnSpeedAt(r, zm)) * rspan
			p -= (1 + p*p) * grad * dr
			z += p * dr
			// Surface and bottom reflections.
			if z < 0 {
				z = -z
				p = -p
			}
			if z > zMax {
				z = 2*zMax - z
				p = -p
				amp *= math.Pow(10, -cfg.BottomLossDB/10)
			}
			if z < 0 { // pathological double reflection: clamp
				z = 0
			}
			r += dr
			ri := int(r / rMax * float64(nr))
			zi := int(z * (float64(nz) / zMax))
			if ri >= nr {
				ri = nr - 1
			}
			if zi >= nz {
				zi = nz - 1
			}
			if zi < 0 {
				zi = 0
			}
			deposit.Set(ri, zi, deposit.At(ri, zi)+amp)
		}
	}

	alpha := physics.ThorpAttenuation(cfg.FreqKHz) // dB/km
	cellH := zMax / float64(nz)
	out := &TLField{
		Ranges: make([]float64, nr),
		Depths: make([]float64, nz),
		TL:     linalg.NewDense(nr, nz),
	}
	for i := 0; i < nr; i++ {
		out.Ranges[i] = (float64(i) + 0.5) * rMax / float64(nr)
	}
	for k := 0; k < nz; k++ {
		out.Depths[k] = (float64(k) + 0.5) * zMax / float64(nz)
	}
	const tiny = 1e-300
	ref := 1.0 / cellH / 1.0 // all energy through 1 cell at r = 1 m
	for i := 0; i < nr; i++ {
		rr := out.Ranges[i]
		for k := 0; k < nz; k++ {
			intensity := deposit.At(i, k) / cellH / rr
			tl := -10*math.Log10((intensity+tiny)/ref) + alpha*rr/1000
			if tl > 200 {
				tl = 200 // shadow-zone floor
			}
			out.TL.Set(i, k, tl)
		}
	}
	return deposit, out
}

// locateByReciprocal is locate with the fraction multiplied by the
// reciprocal of the cell width, as seek computes it.
func locateByReciprocal(xs []float64, x float64) (int, float64) {
	i, _ := locate(xs, x)
	if x <= xs[0] {
		return i, 0
	}
	if x >= xs[len(xs)-1] {
		return i, 1
	}
	return i, (x - xs[i]) * (1 / (xs[i+1] - xs[i]))
}

// sameBits fails the test at the first element of got whose bit pattern
// differs from want's.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// benchSection is a section of the shape bench/'s acoustic-climate
// workload cuts: a 32x32x6 Monterey Bay member after Run(30), 2*NX
// range points along row j.
func benchSection(t testing.TB, seed uint64, j int) *Section {
	t.Helper()
	g := grid.MontereyBay(32, 32, 6)
	m := ocean.New(ocean.DefaultConfig(g), rng.New(seed))
	m.Run(30)
	sec, err := ExtractSection(m.Layout, m.State(nil), 1, j, g.NX-2, j, 2*g.NX)
	if err != nil {
		t.Fatal(err)
	}
	return sec
}

// oracleCase is one row of the table both trace oracles run on.
type oracleCase struct {
	name   string
	sec    *Section
	cfg    TLConfig
	sumTol float64 // relative tolerance of the deposit sum against traceReference
}

// oracleCases is that table: bench-shaped sections at seven source
// depths each, a synthetic and a minimal section, non-uniform levels, a
// coarse output grid and a steep lossy fan whose rays die mid-march.
func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	var cases []oracleCase
	add := func(name string, sec *Section, mod func(*TLConfig)) {
		cfg := DefaultTLConfig()
		if mod != nil {
			mod(&cfg)
		}
		cases = append(cases, oracleCase{name, sec, cfg, 0.02})
	}

	for j, sec := range []*Section{benchSection(t, 3, 5), benchSection(t, 4, 16), benchSection(t, 5, 26)} {
		zMax := sec.Depths[sec.NZ()-1]
		for _, d := range []float64{0, 10, 30, 50, 80, 120, zMax} {
			add(fmt.Sprintf("bench-%d/source-%g", j, d), sec, func(c *TLConfig) { c.SourceDepth = d })
		}
	}
	add("synthetic-20x20", syntheticSection(20, 20, 10e3, 200), nil)
	add("minimal-2x2", syntheticSection(2, 2, 5e3, 100), nil)

	// Non-uniform levels that start below the surface: the top clamp of
	// the depth walk and the one-sided gradient are both exercised, and
	// the mean level spacing is not any actual spacing.
	uneven := syntheticSection(12, 6, 8e3, 150)
	copy(uneven.Depths, []float64{4, 9, 21, 48, 95, 150})
	for i := 0; i < uneven.NR(); i++ {
		for k, z := range uneven.Depths {
			uneven.C.Set(i, k, 1500-0.08*z+0.4*math.Sin(float64(i)+z/30))
		}
	}
	add("uneven-depths/source-0", uneven, func(c *TLConfig) { c.SourceDepth = 0 })
	add("uneven-depths/source-2", uneven, func(c *TLConfig) { c.SourceDepth = 2 })
	add("uneven-depths/source-60", uneven, func(c *TLConfig) { c.SourceDepth = 60 })

	add("grid-7x5", benchSection(t, 6, 11), func(c *TLConfig) { c.RangeCells, c.DepthCells = 7, 5 })
	cases[len(cases)-1].sumTol = 0.05
	add("steep-lossy", benchSection(t, 7, 20), func(c *TLConfig) {
		c.MaxAngleDeg, c.BottomLossDB = 80, 30
	})

	return cases
}

// TestTraceBitIdenticalToReference holds Trace to traceSlopeReference
// bit for bit, through one reused solver: the ln c and reciprocal
// tables, the step table, the carried cells of seek and the buffer reuse
// across shapes change no bit of the deposit or the field.
func TestTraceBitIdenticalToReference(t *testing.T) {
	// One solver for every case: a trace must not depend on what the
	// solver traced before, across shape changes or not.
	var solver TLSolver
	for _, tc := range oracleCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			wantDeposit, wantField := traceSlopeReference(tc.sec, tc.cfg)
			if err := solver.Trace(tc.sec, tc.cfg); err != nil {
				t.Fatal(err)
			}
			sameBits(t, "deposit", solver.deposit.Data, wantDeposit.Data)
			got := solver.Field(tc.cfg.FreqKHz)
			sameBits(t, "TL", got.TL.Data, wantField.TL.Data)
			sameBits(t, "Ranges", got.Ranges, wantField.Ranges)
			sameBits(t, "Depths", got.Depths, wantField.Depths)
			fresh, err := ComputeTL(tc.sec, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "ComputeTL", fresh.TL.Data, wantField.TL.Data)
		})
	}
}

// TestTraceMatchesReference holds the slope kernel to the angle-form
// oracle on quantities that are smooth in the ray paths. Per cell values
// are not: a ray that crosses a cell edge flips a shadow cell off the
// 200 dB floor, so on this table cells differ from the oracle's by
// 2.6 dB on average and by up to 78 dB. A fan's mean TL and its deposit
// sum move little:
//   - per fan, |mean TL − reference| ≤ 3 dB (the bench-shaped fans read
//     −1.6 … +1.3 dB, sd 0.75);
//   - over the table, the paired mean of that difference is within
//     0.5 dB (it reads +0.14 dB);
//   - the deposit sum is within 2 % of the reference's (+0.1 … +1.0 %;
//     the slope recurrence drops a second-order term that steepens a
//     ray, so rays bounce a little less), 5 % on grid-7x5, whose steps
//     are 8.6 times longer (+3.9 %);
//   - every deposit is finite and non-negative, every TL cell is finite,
//     at most the 200 dB floor and no more than 1 dB below the
//     reference's lowest cell, and every fan's mean TL is in [40, 200].
func TestTraceMatchesReference(t *testing.T) {
	cases := oracleCases(t)
	// One solver for every case: a trace must not depend on what the
	// solver traced before, across shape changes or not.
	var solver TLSolver
	diffs := make([]float64, 0, len(cases))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantDeposit, wantField := traceReference(tc.sec, tc.cfg)
			if err := solver.Trace(tc.sec, tc.cfg); err != nil {
				t.Fatal(err)
			}
			got := solver.Field(tc.cfg.FreqKHz)
			sum, wantSum := 0.0, 0.0
			for i, v := range solver.deposit.Data {
				if !(v >= 0) || math.IsInf(v, 1) {
					t.Fatalf("deposit[%d] = %v", i, v)
				}
				sum, wantSum = sum+v, wantSum+wantDeposit.Data[i]
			}
			if rel := sum/wantSum - 1; !(math.Abs(rel) <= tc.sumTol) {
				t.Errorf("deposit sum %v, reference %v: %+.2f %%, tolerance %g %%", sum, wantSum, 100*rel, 100*tc.sumTol)
			}
			floor := wantField.TL.Data[0]
			for _, v := range wantField.TL.Data {
				floor = math.Min(floor, v)
			}
			for i, v := range got.TL.Data {
				if !(v >= floor-1 && v <= 200) {
					t.Fatalf("TL[%d] = %v outside [%v, 200] (the reference's lowest cell less 1 dB)", i, v, floor-1)
				}
			}
			mean := meanOf(got.TL.Data)
			if !(mean >= 40 && mean <= 200) {
				t.Errorf("mean TL %v outside [40, 200]", mean)
			}
			d := mean - meanOf(wantField.TL.Data)
			if !(math.Abs(d) <= 3) {
				t.Errorf("mean TL %v, reference %v: %+.2f dB, tolerance 3 dB", mean, meanOf(wantField.TL.Data), d)
			}
			diffs = append(diffs, d)
			sameBits(t, "Ranges", got.Ranges, wantField.Ranges)
			sameBits(t, "Depths", got.Depths, wantField.Depths)
		})
	}
	if len(diffs) != len(cases) {
		return // a case stopped early and has reported why
	}
	if bias := meanOf(diffs); !(math.Abs(bias) <= 0.5) {
		t.Errorf("mean TL minus reference, paired over %d cases: %+.3f dB, tolerance 0.5 dB", len(cases), bias)
	}
}

// meanOf returns the arithmetic mean of xs.
func meanOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m += x
	}
	return m / float64(len(xs))
}

// TestTraceFollowsCircularArcs checks the kernel against the closed
// form the tree otherwise lacks. In a range-independent section with c
// linear in z, Snell's invariant ξ = cos θ / c holds along a ray, so
// sin θ(r) = sin θ₀ − c_z·ξ·r and z(r) = z₀ + (cos θ(r) − cos θ₀)/(c_z·ξ):
// every ray is a circular arc. A narrow fan that touches neither surface
// nor bottom is traced at c_z = ±0.017 s⁻¹ over 240 steps of 125 m, and
// the arcs are deposited into the same grid at the same ranges. Per
// deposit row, the amplitude-weighted mean depth of the kernel may be at
// most 40 m from the arcs', and no further off than traceReference's
// times 1.25; the two first-order integrators are both about 20–30 m
// off at 30 km, on 10 m depth cells.
func TestTraceFollowsCircularArcs(t *testing.T) {
	const (
		rMax, zMax = 30e3, 10e3
		c0         = 1500.0
	)
	for _, tc := range []struct {
		name   string
		gz, z0 float64 // sound-speed gradient (1/s) and source depth (m)
	}{
		{"upward-refracting", 0.017, 7000},
		{"downward-refracting", -0.017, 3000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sec := syntheticSection(2, 201, rMax, zMax)
			for i := 0; i < sec.NR(); i++ {
				for k, z := range sec.Depths {
					sec.C.Set(i, k, c0+tc.gz*z)
				}
			}
			cfg := DefaultTLConfig()
			cfg.SourceDepth, cfg.NumRays, cfg.MaxAngleDeg = tc.z0, 11, 1
			cfg.RangeCells, cfg.DepthCells = 60, 1000

			var solver TLSolver
			if err := solver.Trace(sec, cfg); err != nil {
				t.Fatal(err)
			}
			refDeposit, _ := traceReference(sec, cfg)

			// The arcs, deposited as the kernels deposit: the same running
			// sum of r, the same rows and cells, the same weight a ray.
			arcs := linalg.NewDense(cfg.RangeCells, cfg.DepthCells)
			dr := rMax / float64(cfg.RangeCells) / 4
			maxAngle := cfg.MaxAngleDeg * math.Pi / 180
			for rayI := 0; rayI < cfg.NumRays; rayI++ {
				theta0 := -maxAngle + 2*maxAngle*float64(rayI)/float64(cfg.NumRays-1)
				k := tc.gz * math.Cos(theta0) / (c0 + tc.gz*tc.z0) // c_z·ξ
				for r := 0.0; r < rMax; {
					r += dr
					sin := math.Sin(theta0) - k*r
					z := tc.z0 + (math.Sqrt(1-sin*sin)-math.Cos(theta0))/k
					if !(z > 0 && z < zMax) {
						t.Fatalf("arc of ray %d leaves the column at r = %v: z = %v", rayI, r, z)
					}
					ri := min(int(r/rMax*float64(cfg.RangeCells)), cfg.RangeCells-1)
					zi := int(z / zMax * float64(cfg.DepthCells))
					arcs.Set(ri, zi, arcs.At(ri, zi)+1/float64(cfg.NumRays))
				}
			}

			meanDepth := func(dep *linalg.Dense, ri int) float64 {
				num, den := 0.0, 0.0
				for zi, v := range dep.Row(ri) {
					num += v * (float64(zi) + 0.5) * zMax / float64(cfg.DepthCells)
					den += v
				}
				return num / den
			}
			errOf := func(dep *linalg.Dense) (worst float64, row int) {
				for ri := 0; ri < cfg.RangeCells; ri++ {
					if e := math.Abs(meanDepth(dep, ri) - meanDepth(arcs, ri)); !(e <= worst) {
						worst, row = e, ri
					}
				}
				return worst, row
			}
			got, gotRow := errOf(solver.deposit)
			ref, refRow := errOf(refDeposit)
			t.Logf("worst row mean-depth error: kernel %.1f m (row %d), traceReference %.1f m (row %d)", got, gotRow, ref, refRow)
			if !(got <= 40) {
				t.Errorf("kernel %.1f m off the arcs at row %d, tolerance 40 m", got, gotRow)
			}
			if !(got <= 1.25*ref) {
				t.Errorf("kernel %.1f m off the arcs, more than 1.25 × traceReference's %.1f m", got, ref)
			}
		})
	}
}

// TestTraceSteepFanOverSpeedJump is the extreme the slope recurrence
// is weakest at: |p| = tan θ starts at 573 at 89.9°, and a 1000 m/s jump
// in c between two levels makes ∂z(ln c) large, so (1+p²)·∂z(ln c)·dr
// throws slopes far past the launch fan, some of them to overflow. A ray
// whose slope is no longer finite has a NaN depth, and its deposit index
// clamps into the column: the range form of the ray equation cannot
// follow a ray that turns past vertical, in either form. What must hold
// is that every deposit and every TL cell stays finite.
func TestTraceSteepFanOverSpeedJump(t *testing.T) {
	sec := syntheticSection(10, 9, 10e3, 200)
	for i := 0; i < sec.NR(); i++ {
		for k := range sec.Depths {
			if k >= 5 {
				sec.C.Set(i, k, 2500)
			}
		}
	}
	cfg := DefaultTLConfig()
	cfg.MaxAngleDeg, cfg.SourceDepth = 89.9, 120
	var solver TLSolver
	if err := solver.Trace(sec, cfg); err != nil {
		t.Fatal(err)
	}
	for i, v := range solver.deposit.Data {
		if !(v >= 0) || math.IsInf(v, 1) {
			t.Fatalf("deposit[%d] = %v", i, v)
		}
	}
	if f := solver.Field(cfg.FreqKHz); !f.TL.IsFinite() {
		t.Fatal("TL field not finite")
	}
}

func TestSpeedAtInterpolation(t *testing.T) {
	sec := syntheticSection(5, 5, 1000, 100)
	// At depth 50 the profile gives 1500 - 2.5 = 1497.5 everywhere.
	if got := sec.SpeedAt(500, 50); math.Abs(got-1497.5) > 1e-9 {
		t.Fatalf("SpeedAt = %v, want 1497.5", got)
	}
	// Clamping outside bounds.
	if got := sec.SpeedAt(-10, -10); math.Abs(got-1500) > 1e-9 {
		t.Fatalf("clamped SpeedAt = %v", got)
	}
	if got := sec.SpeedAt(1e9, 1e9); math.Abs(got-1495) > 1e-9 {
		t.Fatalf("clamped deep SpeedAt = %v", got)
	}
}

func TestDCdZSign(t *testing.T) {
	sec := syntheticSection(5, 20, 1000, 100)
	if g := sec.dCdZ(500, 50); g >= 0 {
		t.Fatalf("downward-refracting profile must have dC/dz < 0, got %v", g)
	}
}

func TestExtractSectionFromOcean(t *testing.T) {
	sec, m := oceanSection(t, 1)
	if sec.NR() != 24 || sec.NZ() != 5 {
		t.Fatalf("section shape %dx%d", sec.NR(), sec.NZ())
	}
	if sec.Ranges[0] != 0 || sec.Ranges[23] <= 0 {
		t.Fatalf("ranges wrong: %v..%v", sec.Ranges[0], sec.Ranges[23])
	}
	// Sound speeds in seawater range.
	for _, c := range sec.C.Data {
		if c < 1440 || c > 1560 {
			t.Fatalf("sound speed %v outside plausible range", c)
		}
	}
	// Warmer surface → faster sound at surface than at depth (column mean).
	surf, bot := 0.0, 0.0
	for i := 0; i < sec.NR(); i++ {
		surf += sec.C.At(i, 0)
		bot += sec.C.At(i, sec.NZ()-1)
	}
	if surf <= bot {
		t.Fatal("no downward-refracting structure from stratified ocean")
	}
	_ = m
}

func TestExtractSectionErrors(t *testing.T) {
	g := grid.MontereyBay(8, 8, 3)
	l := grid.NewLayout(g, ocean.Vars(g))
	st := l.NewState()
	if _, err := ExtractSection(l, st, -1, 0, 5, 5, 10); err == nil {
		t.Fatal("out-of-grid endpoint accepted")
	}
	if _, err := ExtractSection(l, st, 0, 0, 5, 5, 1); err == nil {
		t.Fatal("single-point section accepted")
	}
	lNoT := grid.NewLayout(g, []grid.VarSpec{{Name: "eta", Levels: 1}})
	if _, err := ExtractSection(lNoT, lNoT.NewState(), 0, 0, 5, 5, 10); err == nil {
		t.Fatal("layout without T accepted")
	}
}

func TestComputeTLBasicShape(t *testing.T) {
	sec := syntheticSection(20, 20, 10e3, 200)
	cfg := DefaultTLConfig()
	f, err := ComputeTL(sec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.TL.Rows != cfg.RangeCells || f.TL.Cols != cfg.DepthCells {
		t.Fatalf("TL shape %dx%d", f.TL.Rows, f.TL.Cols)
	}
	if !f.TL.IsFinite() {
		t.Fatal("TL field has NaN/Inf")
	}
	// Mean TL at the far third of ranges must exceed the near third:
	// sound gets weaker with range.
	near, far := 0.0, 0.0
	third := cfg.RangeCells / 3
	for i := 0; i < third; i++ {
		for k := 0; k < cfg.DepthCells; k++ {
			near += f.At(i, k)
			far += f.At(cfg.RangeCells-1-i, k)
		}
	}
	if far <= near {
		t.Fatalf("TL does not increase with range: near %v far %v", near, far)
	}
}

func TestTLFrequencyAbsorption(t *testing.T) {
	// Higher frequency → larger Thorp absorption → larger far-field TL.
	sec := syntheticSection(20, 20, 20e3, 200)
	lo := DefaultTLConfig()
	lo.FreqKHz = 0.5
	hi := DefaultTLConfig()
	hi.FreqKHz = 10
	fLo, err := ComputeTL(sec, lo)
	if err != nil {
		t.Fatal(err)
	}
	fHi, err := ComputeTL(sec, hi)
	if err != nil {
		t.Fatal(err)
	}
	iLast := lo.RangeCells - 1
	meanLo, meanHi := 0.0, 0.0
	for k := 0; k < lo.DepthCells; k++ {
		meanLo += fLo.At(iLast, k)
		meanHi += fHi.At(iLast, k)
	}
	if meanHi <= meanLo {
		t.Fatalf("10 kHz far TL (%v) not above 0.5 kHz (%v)", meanHi, meanLo)
	}
}

func TestTLSourceDepthMatters(t *testing.T) {
	sec, _ := oceanSection(t, 2)
	shallow := DefaultTLConfig()
	shallow.SourceDepth = 10
	deep := DefaultTLConfig()
	deep.SourceDepth = 150
	f1, err := ComputeTL(sec, shallow)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := ComputeTL(sec, deep)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0.0
	for i := range f1.TL.Data {
		diff += math.Abs(f1.TL.Data[i] - f2.TL.Data[i])
	}
	if diff == 0 {
		t.Fatal("source depth has no effect on the TL field")
	}
}

func TestComputeTLValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name  string
		spoil func(sec *Section, cfg *TLConfig)
		field string // the error must name it
	}{
		{"tiny ray fan", func(_ *Section, c *TLConfig) { c.NumRays = 3 }, "NumRays"},
		{"source below bottom", func(_ *Section, c *TLConfig) { c.SourceDepth = 1e6 }, "SourceDepth"},
		{"source above surface", func(_ *Section, c *TLConfig) { c.SourceDepth = -1 }, "SourceDepth"},
		{"NaN source depth", func(_ *Section, c *TLConfig) { c.SourceDepth = nan }, "SourceDepth"},
		{"NaN bottom loss", func(_ *Section, c *TLConfig) { c.BottomLossDB = nan }, "BottomLossDB"},
		{"infinite bottom loss", func(_ *Section, c *TLConfig) { c.BottomLossDB = inf }, "BottomLossDB"},
		{"zero fan angle", func(_ *Section, c *TLConfig) { c.MaxAngleDeg = 0 }, "MaxAngleDeg"},
		{"vertical fan angle", func(_ *Section, c *TLConfig) { c.MaxAngleDeg = 90 }, "MaxAngleDeg"},
		{"NaN fan angle", func(_ *Section, c *TLConfig) { c.MaxAngleDeg = nan }, "MaxAngleDeg"},
		{"no range cells", func(_ *Section, c *TLConfig) { c.RangeCells = 0 }, "RangeCells"},
		{"negative depth cells", func(_ *Section, c *TLConfig) { c.DepthCells = -2 }, "DepthCells"},
		{"one range point", func(s *Section, _ *TLConfig) { s.Ranges = s.Ranges[:1] }, "Ranges"},
		{"one depth point", func(s *Section, _ *TLConfig) { s.Depths = s.Depths[:1] }, "Depths"},
		{"descending ranges", func(s *Section, _ *TLConfig) { s.Ranges[4], s.Ranges[5] = s.Ranges[5], s.Ranges[4] }, "Ranges"},
		{"repeated depth", func(s *Section, _ *TLConfig) { s.Depths[3] = s.Depths[2] }, "Depths"},
		{"NaN depth", func(s *Section, _ *TLConfig) { s.Depths[0] = nan }, "Depths"},
		{"infinite range", func(s *Section, _ *TLConfig) { s.Ranges[9] = inf }, "Ranges"},
		{"ranges end at zero", func(s *Section, _ *TLConfig) {
			for i := range s.Ranges {
				s.Ranges[i] -= 1000
			}
		}, "Ranges"},
		{"no sound speeds", func(s *Section, _ *TLConfig) { s.C = nil }, "C is not"},
		{"sound speeds of another shape", func(s *Section, _ *TLConfig) { s.C = linalg.NewDense(11, 10) }, "C is not"},
		{"NaN sound speed", func(s *Section, _ *TLConfig) { s.C.Set(3, 4, nan) }, "C[3][4]"},
		{"infinite sound speed", func(s *Section, _ *TLConfig) { s.C.Set(0, 0, inf) }, "C[0][0]"},
		{"zero sound speed", func(s *Section, _ *TLConfig) { s.C.Set(9, 9, 0) }, "C[9][9]"},
		{"negative sound speed", func(s *Section, _ *TLConfig) { s.C.Set(2, 0, -1500) }, "C[2][0]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sec := syntheticSection(10, 10, 1000, 100)
			cfg := DefaultTLConfig()
			tc.spoil(sec, &cfg)
			f, err := ComputeTL(sec, cfg)
			if err == nil {
				t.Fatalf("accepted, field finite: %v", f.TL.IsFinite())
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name %s", err, tc.field)
			}
		})
	}
}

func TestSolverSeesSectionEditedInPlace(t *testing.T) {
	// The sharing of a trace is in the call structure, not in state keyed
	// on the section: the same pointer with new contents is a new solve.
	sec := syntheticSection(20, 20, 10e3, 200)
	cfg := DefaultTLConfig()
	cfg.NumRays = 100
	var solver TLSolver
	first, err := solver.Compute(sec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := first.Flatten()
	for i := 0; i < sec.NR(); i++ {
		for k := 0; k < sec.NZ(); k++ {
			sec.C.Set(i, k, sec.C.At(i, k)+0.2*float64(k)*float64(i%3))
		}
	}
	second, err := solver.Compute(sec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := ComputeTL(sec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "TL after edit", second.TL.Data, fresh.TL.Data)
	changed := false
	for i, v := range fresh.TL.Data {
		if v != before[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("the edit did not change the field; the test proves nothing")
	}
}

func TestSolverSteadyStateDoesNotAllocate(t *testing.T) {
	sec := syntheticSection(20, 20, 10e3, 200)
	cfg := DefaultTLConfig()
	cfg.NumRays = 50
	var solver TLSolver
	if _, err := solver.Compute(sec, cfg); err != nil { // warm: grids and step table
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := solver.Trace(sec, cfg); err != nil {
			t.Fatal(err)
		}
		solver.Field(0.5)
		solver.Field(2)
	})
	if allocs != 0 {
		t.Fatalf("Trace + Field on a warmed solver: %v allocs/op, want 0", allocs)
	}
}

// TestComputeTLAllocs: a one-shot ComputeTL pays for a cold solver —
// its deposit grid, the field it returns, its step table and the one
// buffer of its section tables — and nothing per ray or per step.
func TestComputeTLAllocs(t *testing.T) {
	sec := syntheticSection(20, 20, 10e3, 200)
	cfg := DefaultTLConfig()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ComputeTL(sec, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 9 {
		t.Fatalf("ComputeTL on a 20x20 section: %v allocs/op, want 9", allocs)
	}
}

func TestFlatten(t *testing.T) {
	sec := syntheticSection(10, 10, 1000, 100)
	f, err := ComputeTL(sec, DefaultTLConfig())
	if err != nil {
		t.Fatal(err)
	}
	v := f.Flatten()
	if len(v) != f.TL.Rows*f.TL.Cols {
		t.Fatalf("Flatten length %d", len(v))
	}
	v[0] = -12345
	if f.TL.Data[0] == -12345 {
		t.Fatal("Flatten must copy")
	}
}

func TestEnsembleTLUncertainty(t *testing.T) {
	// Perturbed ocean states must produce nonzero TL standard deviation.
	g := grid.MontereyBay(14, 14, 4)
	var sections []*Section
	for seed := uint64(0); seed < 6; seed++ {
		m := ocean.New(ocean.DefaultConfig(g), rng.New(seed))
		m.Run(30) // different noise → different T/S → different c
		st := m.State(nil)
		sec, err := ExtractSection(m.Layout, st, 1, 7, 12, 7, 16)
		if err != nil {
			t.Fatal(err)
		}
		sections = append(sections, sec)
	}
	cfg := DefaultTLConfig()
	cfg.NumRays = 200
	stats, err := EnsembleTL(sections, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Mean.TL.IsFinite() || !stats.Std.TL.IsFinite() {
		t.Fatal("ensemble stats not finite")
	}
	maxStd := stats.Std.TL.MaxAbs()
	if maxStd <= 0 {
		t.Fatal("ocean uncertainty did not transfer to TL uncertainty")
	}
	for _, v := range stats.Std.TL.Data {
		if v < 0 {
			t.Fatal("negative standard deviation")
		}
	}
}

func TestEnsembleTLEmpty(t *testing.T) {
	if _, err := EnsembleTL(nil, DefaultTLConfig()); err == nil {
		t.Fatal("empty ensemble accepted")
	}
}

func TestClimateProductCount(t *testing.T) {
	sec := syntheticSection(10, 10, 5e3, 150)
	spec := ClimateSpec{
		Sections:     []*Section{sec, sec, sec},
		SourceDepths: []float64{10, 50},
		FreqsKHz:     []float64{0.5, 1, 2},
		Base:         DefaultTLConfig(),
		Workers:      4,
	}
	if spec.TaskCount() != 18 {
		t.Fatalf("TaskCount = %d", spec.TaskCount())
	}
	spec.Base.NumRays = 100
	res, err := ComputeClimate(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) != 18 || res.Failed != 0 {
		t.Fatalf("tasks=%d failed=%d", len(res.Tasks), res.Failed)
	}
}

func TestClimateSinkReceivesAllFields(t *testing.T) {
	sec := syntheticSection(10, 10, 5e3, 150)
	spec := ClimateSpec{
		Sections:     []*Section{sec},
		SourceDepths: []float64{20, 40},
		FreqsKHz:     []float64{1},
		Base:         DefaultTLConfig(),
		Workers:      2,
	}
	spec.Base.NumRays = 60
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	got := 0
	_, err := ComputeClimate(context.Background(), spec, func(task ClimateTask, f *TLField) {
		<-mu
		got++
		mu <- struct{}{}
		if f == nil {
			t.Error("nil field delivered")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("sink received %d fields, want 2", got)
	}
}

func TestClimateCancellation(t *testing.T) {
	sec := syntheticSection(30, 30, 50e3, 300)
	spec := ClimateSpec{
		Sections:     []*Section{sec},
		SourceDepths: make([]float64, 50),
		FreqsKHz:     []float64{1},
		Base:         DefaultTLConfig(),
		Workers:      2,
	}
	for i := range spec.SourceDepths {
		spec.SourceDepths[i] = 10 + float64(i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before start
	res, err := ComputeClimate(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) != 0 {
		t.Fatalf("%d tasks completed after pre-cancellation", len(res.Tasks))
	}
}

func TestClimateAccountsForEveryTask(t *testing.T) {
	sec := syntheticSection(10, 10, 5e3, 150)
	for _, workers := range []int{1, 2, 8} {
		for _, stopAfter := range []int32{1, 7, 20} {
			spec := ClimateSpec{
				Sections:     []*Section{sec, sec, sec, sec},
				SourceDepths: []float64{10, 30, 50, 80, 120},
				FreqsKHz:     []float64{0.5, 1, 2},
				Base:         DefaultTLConfig(),
				Workers:      workers,
			}
			spec.Base.NumRays = 20
			ctx, cancel := context.WithCancel(context.Background())
			var delivered atomic.Int32
			res, err := ComputeClimate(ctx, spec, func(ClimateTask, *TLField) {
				if delivered.Add(1) == stopAfter {
					cancel() // mid-fan unless stopAfter is a multiple of 3
				}
			})
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			total := spec.TaskCount()
			if got := len(res.Tasks) + res.Failed + res.Cancelled; got != total {
				t.Fatalf("workers %d, cancel after %d: %d done + %d failed + %d cancelled = %d of %d tasks",
					workers, stopAfter, len(res.Tasks), res.Failed, res.Cancelled, got, total)
			}
			if len(res.Tasks) < int(stopAfter) || res.Cancelled == 0 || res.Failed != 0 {
				t.Fatalf("workers %d, cancel after %d: done %d failed %d cancelled %d",
					workers, stopAfter, len(res.Tasks), res.Failed, res.Cancelled)
			}
		}
	}
}

func TestClimateFailedTraceFailsItsFan(t *testing.T) {
	good := syntheticSection(10, 10, 5e3, 150)
	bad := syntheticSection(10, 10, 5e3, 150)
	bad.C.Set(4, 4, math.NaN())
	spec := ClimateSpec{
		Sections:     []*Section{good, bad},
		SourceDepths: []float64{10, 50},
		FreqsKHz:     []float64{0.5, 1, 2},
		Base:         DefaultTLConfig(),
		Workers:      2,
	}
	spec.Base.NumRays = 20
	res, err := ComputeClimate(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) != 6 || res.Failed != 6 || res.Cancelled != 0 {
		t.Fatalf("done %d failed %d cancelled %d, want 6/6/0", len(res.Tasks), res.Failed, res.Cancelled)
	}
	for _, task := range res.Tasks {
		if task.Task.Slice != 0 {
			t.Fatalf("task %+v of the NaN section completed", task.Task)
		}
	}
}

func TestClimateMatchesPerTaskComputeTL(t *testing.T) {
	// Tasks of one (slice, source) pair share a trace; nothing of that
	// may show in the result. The reference is the plain product loop.
	a := syntheticSection(12, 8, 6e3, 150)
	b := syntheticSection(9, 11, 9e3, 220)
	for i := 0; i < b.NR(); i++ {
		for k := 0; k < b.NZ(); k++ {
			b.C.Set(i, k, b.C.At(i, k)+0.3*math.Sin(float64(i+2*k)))
		}
	}
	spec := ClimateSpec{
		Sections:     []*Section{a, b, a}, // the same pointer twice
		SourceDepths: []float64{10, 60, 140},
		FreqsKHz:     []float64{0.5, 1, 2, 8},
		Base:         DefaultTLConfig(),
	}
	spec.Base.NumRays = 40

	type ref struct {
		task  ClimateTask
		field *TLField
		mean  float64
	}
	var want []ref
	for si, sec := range spec.Sections {
		for di, depth := range spec.SourceDepths {
			for fi, freq := range spec.FreqsKHz {
				cfg := spec.Base
				cfg.SourceDepth, cfg.FreqKHz = depth, freq
				f, err := ComputeTL(sec, cfg)
				if err != nil {
					t.Fatal(err)
				}
				mean := 0.0
				for _, v := range f.TL.Data {
					mean += v
				}
				mean /= float64(len(f.TL.Data))
				want = append(want, ref{ClimateTask{si, di, fi}, f, mean})
			}
		}
	}

	for _, workers := range []int{1, 2, 8} {
		for _, withSink := range []bool{false, true} {
			spec.Workers = workers
			var mu sync.Mutex
			kept := make(map[ClimateTask]*TLField)
			var sink func(ClimateTask, *TLField)
			if withSink {
				sink = func(task ClimateTask, f *TLField) {
					mu.Lock()
					kept[task] = f
					mu.Unlock()
				}
			}
			res, err := ComputeClimate(context.Background(), spec, sink)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Tasks) != len(want) || res.Failed != 0 || res.Cancelled != 0 {
				t.Fatalf("workers %d sink %v: done %d failed %d cancelled %d",
					workers, withSink, len(res.Tasks), res.Failed, res.Cancelled)
			}
			for i, w := range want {
				got := res.Tasks[i]
				if got.Task != w.task || math.Float64bits(got.MeanTL) != math.Float64bits(w.mean) {
					t.Fatalf("workers %d sink %v: result %d = %+v mean %v, per-task ComputeTL gives %+v mean %v",
						workers, withSink, i, got.Task, got.MeanTL, w.task, w.mean)
				}
			}
			if !withSink {
				continue
			}
			// Compared after the run: a field that aliased a solver buffer
			// or a sibling has been overwritten by now.
			owner := make(map[*float64]ClimateTask)
			for _, w := range want {
				f := kept[w.task]
				if f == nil {
					t.Fatalf("workers %d: no field for %+v", workers, w.task)
				}
				sameBits(t, "sink TL", f.TL.Data, w.field.TL.Data)
				sameBits(t, "sink Ranges", f.Ranges, w.field.Ranges)
				sameBits(t, "sink Depths", f.Depths, w.field.Depths)
				for _, p := range []*float64{&f.TL.Data[0], &f.Ranges[0], &f.Depths[0]} {
					if other, dup := owner[p]; dup {
						t.Fatalf("workers %d: fields of %+v and %+v share memory", workers, other, w.task)
					}
					owner[p] = w.task
				}
			}
		}
	}
}

func TestClimateEmptySpec(t *testing.T) {
	if _, err := ComputeClimate(context.Background(), ClimateSpec{}, nil); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func BenchmarkComputeTL(b *testing.B) {
	sec := syntheticSection(20, 20, 10e3, 200)
	cfg := DefaultTLConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeTL(sec, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// SpeedAt bilinearly interpolates the sound speed at (r, z), clamped to
// the section bounds.
func (s *Section) SpeedAt(r, z float64) float64 {
	ri, rf := seek(s.Ranges, reciprocals(make([]float64, s.NR()-1), s.Ranges), 0, r)
	zi, zf := seek(s.Depths, reciprocals(make([]float64, s.NZ()-1), s.Depths), 0, z)
	return speed(s.C.Row(ri), s.C.Row(ri+1), rf, 1-rf, zi, zf)
}

// At returns TL at cell (ri, zi).
func (f *TLField) At(ri, zi int) float64 { return f.TL.At(ri, zi) }

// Flatten returns the TL values as a vector (row-major), used to stack
// acoustic fields into coupled state vectors.
func (f *TLField) Flatten() []float64 {
	out := make([]float64, len(f.TL.Data))
	copy(out, f.TL.Data)
	return out
}
