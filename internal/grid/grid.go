// Package grid provides the structured ocean grid, multi-variable state
// layout and packing used by the ocean model, the observation operators
// and the ESSE state vectors.
//
// A Grid is a regular NX×NY horizontal mesh with NZ vertical levels. A
// StateLayout concatenates a set of named variables (2-D fields such as
// sea-surface height, 3-D fields such as temperature) into one flat state
// vector — the "augmented state vector x of large but finite dimensions"
// of the paper's Section 3.
package grid

import "fmt"

// Grid is a regular structured grid over a coastal region.
type Grid struct {
	NX, NY, NZ int
	// Dx, Dy are horizontal spacings in meters.
	Dx, Dy float64
	// Depths are the vertical level depths in meters (surface first).
	Depths []float64
	// Lon0, Lat0 anchor the grid's south-west corner (degrees).
	Lon0, Lat0 float64
}

// New constructs a grid with uniformly spaced vertical levels from the
// surface down to maxDepth.
func New(nx, ny, nz int, dx, dy, maxDepth float64) *Grid {
	if nx < 2 || ny < 2 || nz < 1 {
		panic(fmt.Sprintf("grid: degenerate dimensions %dx%dx%d", nx, ny, nz))
	}
	depths := make([]float64, nz)
	if nz == 1 {
		depths[0] = 0
	} else {
		for k := range depths {
			depths[k] = maxDepth * float64(k) / float64(nz-1)
		}
	}
	return &Grid{NX: nx, NY: ny, NZ: nz, Dx: dx, Dy: dy, Depths: depths}
}

// MontereyBay returns a grid sized like the AOSN-II Monterey Bay domain
// of the paper's Section 6 (order 100 km × 100 km, O(10) levels), at a
// resolution scaled down so ensemble experiments run at laptop scale.
func MontereyBay(nx, ny, nz int) *Grid {
	g := New(nx, ny, nz, 100e3/float64(nx-1), 100e3/float64(ny-1), 150)
	g.Lon0, g.Lat0 = -122.5, 36.3
	return g
}

// N2 returns the number of horizontal points.
func (g *Grid) N2() int { return g.NX * g.NY }

// N3 returns the number of 3-D points.
func (g *Grid) N3() int { return g.NX * g.NY * g.NZ }

// Idx2 flattens a horizontal index (i east, j north).
func (g *Grid) Idx2(i, j int) int { return j*g.NX + i }

// Idx3 flattens a 3-D index (level k counted downward).
func (g *Grid) Idx3(i, j, k int) int { return k*g.NX*g.NY + j*g.NX + i }

// InBounds reports whether (i, j) lies on the grid.
func (g *Grid) InBounds(i, j int) bool {
	return i >= 0 && i < g.NX && j >= 0 && j < g.NY
}

// VarSpec names one state variable. Levels is 1 for a 2-D field (e.g.
// sea-surface height) or Grid.NZ for a full 3-D field.
type VarSpec struct {
	Name   string
	Levels int
}

// StateLayout maps named variables into a single packed state vector.
type StateLayout struct {
	G       *Grid
	Vars    []VarSpec
	offsets []int
	dim     int
}

// NewLayout builds the layout for the given variables on grid g.
func NewLayout(g *Grid, vars []VarSpec) *StateLayout {
	l := &StateLayout{G: g, Vars: vars, offsets: make([]int, len(vars))}
	off := 0
	for i, v := range vars {
		if v.Levels < 1 || v.Levels > g.NZ {
			panic(fmt.Sprintf("grid: variable %q has %d levels, grid has %d", v.Name, v.Levels, g.NZ))
		}
		l.offsets[i] = off
		off += v.Levels * g.N2()
	}
	l.dim = off
	return l
}

// Dim returns the packed state dimension.
func (l *StateLayout) Dim() int { return l.dim }

// VarIndex returns the index of the named variable, or -1.
func (l *StateLayout) VarIndex(name string) int {
	for i, v := range l.Vars {
		if v.Name == name {
			return i
		}
	}
	return -1
}

// Slice returns the sub-slice of state holding variable idx (all levels).
func (l *StateLayout) Slice(state []float64, idx int) []float64 {
	if len(state) != l.dim {
		panic("grid: state vector has wrong dimension")
	}
	n := l.Vars[idx].Levels * l.G.N2()
	return state[l.offsets[idx] : l.offsets[idx]+n]
}

// SliceByName returns the sub-slice for the named variable.
func (l *StateLayout) SliceByName(state []float64, name string) []float64 {
	idx := l.VarIndex(name)
	if idx < 0 {
		panic("grid: unknown variable " + name)
	}
	return l.Slice(state, idx)
}

// Level returns the horizontal slab (NX*NY values) of variable idx at
// vertical level k.
func (l *StateLayout) Level(state []float64, idx, k int) []float64 {
	v := l.Slice(state, idx)
	n2 := l.G.N2()
	if k < 0 || k >= l.Vars[idx].Levels {
		panic("grid: level out of range")
	}
	return v[k*n2 : (k+1)*n2]
}

// Offset returns the flat position in the state vector of variable idx at
// (i, j, k). Observation operators use this to address single scalars.
func (l *StateLayout) Offset(idx, i, j, k int) int {
	return l.offsets[idx] + k*l.G.N2() + l.G.Idx2(i, j)
}

// NewState allocates a zero state vector.
func (l *StateLayout) NewState() []float64 { return make([]float64, l.dim) }

// NearestLevel returns the vertical level index closest to the given
// depth in meters.
func (g *Grid) NearestLevel(depth float64) int {
	best, bestD := 0, -1.0
	for k, d := range g.Depths {
		diff := d - depth
		if diff < 0 {
			diff = -diff
		}
		if bestD < 0 || diff < bestD {
			best, bestD = k, diff
		}
	}
	return best
}
