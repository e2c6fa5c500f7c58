// Package acoustics implements the ocean-acoustics side of the paper:
// sound-speed sections extracted from the ocean state, a ray-traced
// broadband transmission-loss (TL) solver over vertical range–depth
// sections, the transfer of ESSE ocean uncertainty into TL uncertainty,
// and the "acoustic climate" workload — a very large ensemble of short
// TL computations over sources, frequencies and slices (the 6000+
// three-minute jobs of Section 5.2.1).
//
// The solver is an N×2D incoherent ray-counting model: rays launched
// from the source refract through the range-dependent sound-speed field
// (paraxial ray equations), reflect at surface and bottom with loss, and
// deposit energy on a range–depth grid; intensity combines the ray
// density (vertical focusing), cylindrical spreading and Thorp volume
// absorption. It reproduces the qualitative TL structure (spreading
// loss, ducting, shadow zones) that couples ocean and acoustic
// uncertainties in the paper.
package acoustics

import (
	"fmt"
	"math"

	"esse/internal/grid"
	"esse/internal/linalg"
	"esse/internal/physics"
)

// Section is a vertical slice of sound speed: C[ri][zi] on the Ranges ×
// Depths mesh.
type Section struct {
	Ranges []float64 // m from the section start
	Depths []float64 // m downward
	C      *linalg.Dense
}

// NR returns the number of range points.
func (s *Section) NR() int { return len(s.Ranges) }

// NZ returns the number of depth points.
func (s *Section) NZ() int { return len(s.Depths) }

// speed is the package's one bilinear expression: lo and hi are the
// rows of a section table at range cell ri and ri+1, rf the range
// fraction, orf = 1−rf, (zi, zf) the depth cell and fraction.
func speed(lo, hi []float64, rf, orf float64, zi int, zf float64) float64 {
	return orf*(1-zf)*lo[zi] + rf*(1-zf)*hi[zi] + orf*zf*lo[zi+1] + rf*zf*hi[zi+1]
}

// reciprocals fills dst[i] with 1/(xs[i+1]−xs[i]), the table seek
// multiplies by, and returns it.
func reciprocals(dst, xs []float64) []float64 {
	for i := range dst {
		dst[i] = 1 / (xs[i+1] - xs[i])
	}
	return dst
}

// seek finds the cell index and fraction for x in the strictly ascending
// grid xs by walking up or down from cell i (0 ≤ i ≤ len(xs)−2), clamped
// to the ends; rcp is reciprocals(xs). Successive lookups of a march land
// in or next to the cell of the one before, so a walk from there ends
// after a compare or two where a binary search pays its full depth every
// time.
func seek(xs, rcp []float64, i int, x float64) (int, float64) {
	n := len(xs)
	if x <= xs[0] {
		return 0, 0
	}
	if x >= xs[n-1] {
		return n - 2, 1
	}
	for xs[i] > x {
		i--
	}
	for xs[i+1] <= x {
		i++
	}
	return i, (x - xs[i]) * rcp[i]
}

// ExtractSection samples temperature and salinity from a packed ocean
// state along the horizontal line (i0,j0)→(i1,j1) at nRange points,
// converting to sound speed at every model level via Mackenzie's
// formula. This is how "ESSE ocean physics uncertainties are transferred
// to acoustical uncertainties along such a section".
func ExtractSection(l *grid.StateLayout, state []float64, i0, j0, i1, j1, nRange int) (*Section, error) {
	g := l.G
	if !g.InBounds(i0, j0) || !g.InBounds(i1, j1) {
		return nil, fmt.Errorf("acoustics: section endpoints outside grid")
	}
	if nRange < 2 {
		return nil, fmt.Errorf("acoustics: need at least 2 range points")
	}
	tIdx := l.VarIndex("T")
	sIdx := l.VarIndex("S")
	if tIdx < 0 || sIdx < 0 {
		return nil, fmt.Errorf("acoustics: state lacks T/S variables")
	}
	dxTotal := float64(i1-i0) * g.Dx
	dyTotal := float64(j1-j0) * g.Dy
	length := math.Hypot(dxTotal, dyTotal)
	sec := &Section{
		Ranges: make([]float64, nRange),
		Depths: append([]float64(nil), g.Depths...),
		C:      linalg.NewDense(nRange, g.NZ),
	}
	for ri := 0; ri < nRange; ri++ {
		f := float64(ri) / float64(nRange-1)
		sec.Ranges[ri] = f * length
		fi := float64(i0) + f*float64(i1-i0)
		fj := float64(j0) + f*float64(j1-j0)
		for k := 0; k < g.NZ; k++ {
			tVal := bilinear(l, state, tIdx, fi, fj, k)
			sVal := bilinear(l, state, sIdx, fi, fj, k)
			sec.C.Set(ri, k, physics.SoundSpeedMackenzie(tVal, sVal, g.Depths[k]))
		}
	}
	return sec, nil
}

// bilinear interpolates variable vi at fractional grid position (fi, fj),
// level k.
func bilinear(l *grid.StateLayout, state []float64, vi int, fi, fj float64, k int) float64 {
	g := l.G
	i := int(fi)
	j := int(fj)
	if i >= g.NX-1 {
		i = g.NX - 2
	}
	if j >= g.NY-1 {
		j = g.NY - 2
	}
	xf := fi - float64(i)
	yf := fj - float64(j)
	slab := l.Level(state, vi, k)
	v00 := slab[g.Idx2(i, j)]
	v10 := slab[g.Idx2(i+1, j)]
	v01 := slab[g.Idx2(i, j+1)]
	v11 := slab[g.Idx2(i+1, j+1)]
	return (1-xf)*(1-yf)*v00 + xf*(1-yf)*v10 + (1-xf)*yf*v01 + xf*yf*v11
}

// TLConfig parameterizes a transmission-loss computation.
type TLConfig struct {
	// SourceDepth in meters.
	SourceDepth float64
	// FreqKHz sets the Thorp volume absorption.
	FreqKHz float64
	// NumRays is the launch fan size.
	NumRays int
	// MaxAngleDeg bounds the launch fan (± degrees from horizontal).
	MaxAngleDeg float64
	// RangeCells × DepthCells is the output TL grid resolution.
	RangeCells, DepthCells int
	// BottomLossDB is applied per bottom bounce.
	BottomLossDB float64
}

// DefaultTLConfig returns a configuration for a coastal section and a
// mid-frequency source.
func DefaultTLConfig() TLConfig {
	return TLConfig{
		SourceDepth:  30,
		FreqKHz:      1,
		NumRays:      600,
		MaxAngleDeg:  20,
		RangeCells:   60,
		DepthCells:   30,
		BottomLossDB: 3,
	}
}

// TLField is a transmission-loss field in dB on a range–depth grid.
type TLField struct {
	Ranges []float64
	Depths []float64
	TL     *linalg.Dense // RangeCells × DepthCells
}

// clone returns a copy that shares no memory with f.
func (f *TLField) clone() *TLField {
	return &TLField{
		Ranges: append([]float64(nil), f.Ranges...),
		Depths: append([]float64(nil), f.Depths...),
		TL:     f.TL.Clone(),
	}
}

// ComputeTL traces the ray fan through the section and returns the TL
// field. The field is freshly allocated and owned by the caller; use a
// TLSolver to amortize the grid allocations over repeated solves.
func ComputeTL(sec *Section, cfg TLConfig) (*TLField, error) {
	var s TLSolver
	return s.Compute(sec, cfg)
}

// TLSolver runs TL solves in two stages through reusable buffers. Trace
// marches the ray fan of one (section, source) pair into the deposit
// grid; Field turns the deposit into dB at one frequency. Frequency
// enters only the second stage, so the fields of several frequencies
// cost one Trace. The deposit grid, the step table, the section tables
// and the output field are allocated on the first Trace (or whenever the
// requested shape changes or grows) and overwritten in place afterwards.
// The returned field is owned by the solver — callers that retain it
// across calls must use ComputeTL or copy it. The zero value is ready to
// use; a solver must not be shared between goroutines.
type TLSolver struct {
	deposit *linalg.Dense
	field   *TLField
	steps   []traceStep
	// tables holds what Trace derives from the section, in one buffer:
	// ln c on the section mesh, then reciprocals of the depth and range
	// spacings.
	tables     []float64
	rMax, zMax float64 // extent of the traced section
}

// traceStep is what every ray of a fan shares at one integration step,
// because all of them walk the same r = 0, dr, 2dr, … sequence: the
// section rows bracketing r, the range fraction, and the deposit row
// that r+dr falls in.
type traceStep struct {
	cOff    int // offset of section row ri in C.Data and in ln c; row ri+1 follows it
	rf, orf float64
	depOff  int // offset in deposit.Data of the output row
}

// Compute traces the ray fan through the section into the solver's
// reused field.
func (s *TLSolver) Compute(sec *Section, cfg TLConfig) (*TLField, error) {
	if err := s.Trace(sec, cfg); err != nil {
		return nil, err
	}
	return s.Field(cfg.FreqKHz), nil
}

// checkAxis reports an axis the depth and range walks cannot run on.
func checkAxis(name string, xs []float64) error {
	if len(xs) < 2 {
		return fmt.Errorf("acoustics: %s has %d points, need at least 2", name, len(xs))
	}
	for i := 1; i < len(xs); i++ {
		if d := xs[i] - xs[i-1]; !(d > 0) || math.IsInf(d, 1) {
			return fmt.Errorf("acoustics: %s not finite and strictly ascending at index %d", name, i)
		}
	}
	return nil
}

// checkTrace validates everything Trace indexes or divides by. On an
// axis that is not ascending a carried-cell walk ends wherever it
// started from, and one NaN sound speed turns every later depth into
// NaN and every deposit index into garbage (int(NaN) is negative on
// amd64: the whole fan lands in depth cell 0 of a finite field), so
// malformed input stops here.
func checkTrace(sec *Section, cfg TLConfig) error {
	if cfg.NumRays < 10 {
		return fmt.Errorf("acoustics: NumRays %d, need at least 10", cfg.NumRays)
	}
	if cfg.RangeCells < 1 || cfg.DepthCells < 1 {
		return fmt.Errorf("acoustics: RangeCells x DepthCells %dx%d, need at least 1x1", cfg.RangeCells, cfg.DepthCells)
	}
	if !(cfg.MaxAngleDeg > 0 && cfg.MaxAngleDeg < 90) {
		return fmt.Errorf("acoustics: MaxAngleDeg %v outside (0, 90)", cfg.MaxAngleDeg)
	}
	if math.IsNaN(cfg.BottomLossDB) || math.IsInf(cfg.BottomLossDB, 0) {
		return fmt.Errorf("acoustics: BottomLossDB %v not finite", cfg.BottomLossDB)
	}
	if err := checkAxis("Ranges", sec.Ranges); err != nil {
		return err
	}
	if err := checkAxis("Depths", sec.Depths); err != nil {
		return err
	}
	nr, nz := sec.NR(), sec.NZ()
	if sec.C == nil || sec.C.Rows != nr || sec.C.Cols != nz || len(sec.C.Data) != nr*nz {
		return fmt.Errorf("acoustics: C is not the %dx%d of Ranges x Depths", nr, nz)
	}
	for i, c := range sec.C.Data {
		if !(c > 0) || math.IsInf(c, 1) {
			return fmt.Errorf("acoustics: C[%d][%d] = %v, need a finite positive sound speed", i/nz, i%nz, c)
		}
	}
	if zMax := sec.Depths[nz-1]; !(cfg.SourceDepth >= 0 && cfg.SourceDepth <= zMax) {
		return fmt.Errorf("acoustics: SourceDepth %v outside water column [0, %v]", cfg.SourceDepth, zMax)
	}
	return nil
}

// Trace marches the ray fan of (sec, cfg.SourceDepth) into the solver's
// deposit grid. cfg.FreqKHz is not read.
//
// A ray carries its slope p = tan θ, set once at launch, and follows the
// range form of the ray equation, dθ/dr = −∂z(ln c), as dp/dr =
// −(1+p²)·∂z(ln c): per step p −= (1+p²)·∂z(ln c)·dr, then z += p·dr, and
// a reflection negates p. The gradient comes from a table of ln c filled
// once a call, so a step takes no tangent and divides only at the ends
// of the column. This kernel was re-pinned against the angle form
// (DESIGN "Re-pinning", re-pin 2): traceReference in acoustics_test.go
// is the oracle, held to stated tolerances, not to the bit;
// traceSlopeReference is this kernel without its tables, held to the bit.
func (s *TLSolver) Trace(sec *Section, cfg TLConfig) error {
	if err := checkTrace(sec, cfg); err != nil {
		return err
	}
	snr, snz := sec.NR(), sec.NZ()
	depths := sec.Depths
	rMax, zTop, zMax := sec.Ranges[snr-1], depths[0], depths[snz-1]
	nr, nz := cfg.RangeCells, cfg.DepthCells
	dr := rMax / float64(nr) / 4 // 4 integration steps per output cell
	if !(dr > 0 && zMax > 0) {
		return fmt.Errorf("acoustics: Ranges and Depths end at %v and %v, need both beyond 0", rMax, zMax)
	}
	dep, field, steps, tables := s.deposit, s.field, s.steps[:0], s.tables
	if dep == nil || dep.Rows != nr || dep.Cols != nz {
		dep = linalg.NewDense(nr, nz)
		field = &TLField{
			Ranges: make([]float64, nr),
			Depths: make([]float64, nz),
			TL:     linalg.NewDense(nr, nz),
		}
		// r reaches rMax after 4·nr additions of dr, give or take one
		// for the rounding of the running sum.
		steps = make([]traceStep, 0, 4*nr+1)
	} else {
		dep.Zero()
	}
	if n := snr*snz + snz - 1 + snr - 1; cap(tables) < n {
		tables = make([]float64, n)
	} else {
		tables = tables[:n]
	}
	lnC := tables[:snr*snz]
	rdz := reciprocals(tables[snr*snz:][:snz-1], depths)
	rdr := reciprocals(tables[snr*snz+snz-1:][:snr-1], sec.Ranges)
	for i, c := range sec.C.Data {
		lnC[i] = math.Log(c)
	}
	for r, ri := 0.0, 0; r < rMax; {
		var rf float64
		ri, rf = seek(sec.Ranges, rdr, ri, r)
		r += dr
		di := int(r / rMax * float64(nr))
		if di >= nr {
			di = nr - 1
		}
		steps = append(steps, traceStep{cOff: ri * snz, rf: rf, orf: 1 - rf, depOff: di * nz})
	}
	// From here on the solver describes this trace and nothing of the last.
	*s = TLSolver{deposit: dep, field: field, steps: steps, tables: tables, rMax: rMax, zMax: zMax}

	deposit := dep.Data
	dz := (zMax - zTop) / float64(snz-1)
	half, rdzMean := dz/2, 1/dz
	zScale := float64(nz) / zMax
	bounce := math.Pow(10, -cfg.BottomLossDB/10)
	w := 1.0 / float64(cfg.NumRays)
	maxAngle := cfg.MaxAngleDeg * math.Pi / 180
	for rayI := 0; rayI < cfg.NumRays; rayI++ {
		p := math.Tan(-maxAngle + 2*maxAngle*float64(rayI)/float64(cfg.NumRays-1))
		z := cfg.SourceDepth
		amp := w
		ip, im := 0, 0
		for k := 0; k < len(steps) && amp > 1e-12; k++ {
			st := &steps[k]
			lo := lnC[st.cOff : st.cOff+snz]
			hi := lnC[st.cOff+snz : st.cOff+2*snz]
			// ∂z(ln c), centred over one mean level spacing, one-sided
			// where that leaves the column.
			zp, zm, rspan := z+half, z-half, rdzMean
			if zp > zMax || zm < zTop {
				zp, zm, rspan = min(zp, zMax), max(zm, zTop), 0
				//esselint:allow floatcmp exact equality is the zero-denominator guard; an empty interval has no gradient
				if zp != zm {
					rspan = 1 / (zp - zm)
				}
			}
			var pf, mf float64
			ip, pf = seek(depths, rdz, ip, zp)
			im, mf = seek(depths, rdz, im, zm)
			grad := (speed(lo, hi, st.rf, st.orf, ip, pf) - speed(lo, hi, st.rf, st.orf, im, mf)) * rspan
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
				amp *= bounce
			}
			if z < 0 { // pathological double reflection: clamp
				z = 0
			}
			di := int(z * zScale)
			if di >= nz {
				di = nz - 1
			}
			if di < 0 {
				di = 0
			}
			deposit[st.depOff+di] += amp
		}
	}
	return nil
}

// Field converts the last Trace's deposit into the TL field at freqKHz,
// which sets the Thorp volume absorption. It must follow a successful
// Trace and overwrites the field the previous call returned.
func (s *TLSolver) Field(freqKHz float64) *TLField {
	deposit, out := s.deposit, s.field
	nr, nz := deposit.Rows, deposit.Cols
	rMax, zMax := s.rMax, s.zMax
	cellH := zMax / float64(nz)
	alpha := physics.ThorpAttenuation(freqKHz) // dB/km
	for i := 0; i < nr; i++ {
		out.Ranges[i] = (float64(i) + 0.5) * rMax / float64(nr)
	}
	for k := 0; k < nz; k++ {
		out.Depths[k] = (float64(k) + 0.5) * zMax / float64(nz)
	}
	// Intensity = deposited ray weight / cell height (vertical focusing)
	// × 1/r (cylindrical spreading); reference intensity normalizes the
	// first range column so TL starts near 10·log10(r).
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
	return out
}

// TLStats holds the ensemble mean and standard deviation of TL fields —
// the acoustical uncertainty transferred from the ocean ensemble.
type TLStats struct {
	Mean *TLField
	Std  *TLField
}

// EnsembleTL computes TL for every member section and reduces to mean
// and standard deviation per range–depth cell.
func EnsembleTL(sections []*Section, cfg TLConfig) (*TLStats, error) {
	if len(sections) == 0 {
		return nil, fmt.Errorf("acoustics: empty ensemble")
	}
	var mean, m2 *linalg.Dense
	var tmpl *TLField
	// The Welford reduction only reads each member's field before
	// moving on, so one solver's buffers serve the whole ensemble.
	var solver TLSolver
	for n, sec := range sections {
		f, err := solver.Compute(sec, cfg)
		if err != nil {
			return nil, fmt.Errorf("acoustics: member %d: %w", n, err)
		}
		if mean == nil {
			tmpl = f
			mean = linalg.NewDense(f.TL.Rows, f.TL.Cols)
			m2 = linalg.NewDense(f.TL.Rows, f.TL.Cols)
		}
		// Welford's online mean/variance update.
		k := float64(n + 1)
		for i, v := range f.TL.Data {
			delta := v - mean.Data[i]
			mean.Data[i] += delta / k
			m2.Data[i] += delta * (v - mean.Data[i])
		}
	}
	std := linalg.NewDense(mean.Rows, mean.Cols)
	if len(sections) > 1 {
		inv := 1 / float64(len(sections)-1)
		for i, v := range m2.Data {
			std.Data[i] = math.Sqrt(v * inv)
		}
	}
	return &TLStats{
		Mean: &TLField{Ranges: tmpl.Ranges, Depths: tmpl.Depths, TL: mean},
		Std:  &TLField{Ranges: tmpl.Ranges, Depths: tmpl.Depths, TL: std},
	}, nil
}
