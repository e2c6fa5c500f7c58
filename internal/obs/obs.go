// Package obs models the ocean observing system of the paper's AOSN-II
// exercise: CTD casts, AUV and glider tracks, and satellite SST swaths.
//
// Each observation measures one scalar of the packed model state (a
// point measurement operator H), carries a platform tag and an error
// standard deviation, and can be sampled from a "truth" state with
// Gaussian noise — the twin-experiment substitute for the real 2003
// Monterey Bay campaign data.
package obs

import (
	"fmt"

	"esse/internal/grid"
	"esse/internal/rng"
)

// Platform identifies the observing platform type.
type Platform int

const (
	CTD Platform = iota
	AUV
	Glider
	SatelliteSST
)

// Observation is a single point measurement of one state variable.
type Observation struct {
	Platform Platform
	Var      string // state variable name, e.g. "T"
	I, J, K  int    // grid location
	Stddev   float64
	// offset is the flat index into the packed state vector.
	offset int
}

// Network is a collection of observations bound to a state layout.
type Network struct {
	Layout *grid.StateLayout
	Obs    []Observation
}

// NewNetwork creates an empty network on the given layout.
func NewNetwork(l *grid.StateLayout) *Network {
	return &Network{Layout: l}
}

// Add appends an observation, resolving and validating its state offset.
func (n *Network) Add(o Observation) error {
	vi := n.Layout.VarIndex(o.Var)
	if vi < 0 {
		return fmt.Errorf("obs: unknown variable %q", o.Var)
	}
	g := n.Layout.G
	if !g.InBounds(o.I, o.J) {
		return fmt.Errorf("obs: location (%d,%d) outside grid", o.I, o.J)
	}
	if o.K < 0 || o.K >= n.Layout.Vars[vi].Levels {
		return fmt.Errorf("obs: level %d out of range for %q", o.K, o.Var)
	}
	if o.Stddev <= 0 {
		return fmt.Errorf("obs: non-positive error stddev %v", o.Stddev)
	}
	o.offset = n.Layout.Offset(vi, o.I, o.J, o.K)
	n.Obs = append(n.Obs, o)
	return nil
}

// Len returns the number of observations.
func (n *Network) Len() int { return len(n.Obs) }

// ApplyH computes y = H x for the packed state vector.
func (n *Network) ApplyH(state []float64) []float64 {
	y := make([]float64, len(n.Obs))
	for i, o := range n.Obs {
		y[i] = state[o.offset]
	}
	return y
}

// Sample draws y = H x_truth + ε with ε ~ N(0, R).
func (n *Network) Sample(truth []float64, noise *rng.Stream) []float64 {
	y := n.ApplyH(truth)
	for i := range y {
		y[i] += n.Obs[i].Stddev * noise.Norm()
	}
	return y
}

// CountByPlatform returns the number of observations per platform.
func (n *Network) CountByPlatform() map[Platform]int {
	m := make(map[Platform]int)
	for _, o := range n.Obs {
		m[o.Platform]++
	}
	return m
}

// --- Campaign-style network generators -----------------------------------

// AddCTDSection adds full-depth T and S casts at count stations spaced
// along a line starting at (i0, j0) with per-station step (di, dj).
func (n *Network) AddCTDSection(i0, j0, di, dj, count int, tStd, sStd float64) error {
	g := n.Layout.G
	for s := 0; s < count; s++ {
		i, j := i0+s*di, j0+s*dj
		if !g.InBounds(i, j) {
			continue
		}
		for k := 0; k < g.NZ; k++ {
			if err := n.Add(Observation{Platform: CTD, Var: "T", I: i, J: j, K: k, Stddev: tStd}); err != nil {
				return err
			}
			if err := n.Add(Observation{Platform: CTD, Var: "S", I: i, J: j, K: k, Stddev: sStd}); err != nil {
				return err
			}
		}
	}
	return nil
}

// AddAUVTrack adds temperature observations at a fixed level along a
// straight track.
func (n *Network) AddAUVTrack(i0, j0, di, dj, count, level int, tStd float64) error {
	g := n.Layout.G
	for s := 0; s < count; s++ {
		i, j := i0+s*di, j0+s*dj
		if !g.InBounds(i, j) {
			continue
		}
		if err := n.Add(Observation{Platform: AUV, Var: "T", I: i, J: j, K: level, Stddev: tStd}); err != nil {
			return err
		}
	}
	return nil
}

// AddGliderYo adds a glider doing a sawtooth in depth along a track:
// the level cycles through the water column as the glider advances.
func (n *Network) AddGliderYo(i0, j0, di, dj, count int, tStd float64) error {
	g := n.Layout.G
	for s := 0; s < count; s++ {
		i, j := i0+s*di, j0+s*dj
		if !g.InBounds(i, j) {
			continue
		}
		k := s % g.NZ
		if err := n.Add(Observation{Platform: Glider, Var: "T", I: i, J: j, K: k, Stddev: tStd}); err != nil {
			return err
		}
	}
	return nil
}

// AddSSTSwath adds satellite surface-temperature observations on a
// subsampled grid (every stride-th point).
func (n *Network) AddSSTSwath(stride int, tStd float64) error {
	if stride < 1 {
		stride = 1
	}
	g := n.Layout.G
	for j := 0; j < g.NY; j += stride {
		for i := 0; i < g.NX; i += stride {
			if err := n.Add(Observation{Platform: SatelliteSST, Var: "T", I: i, J: j, K: 0, Stddev: tStd}); err != nil {
				return err
			}
		}
	}
	return nil
}

// AOSN2Network builds a network resembling the AOSN-II multi-platform
// deployment: an SST swath, two CTD sections, an AUV track and a glider.
func AOSN2Network(l *grid.StateLayout) (*Network, error) {
	n := NewNetwork(l)
	g := l.G
	if err := n.AddSSTSwath(maxInt(g.NX/8, 2), 0.5); err != nil {
		return nil, err
	}
	if err := n.AddCTDSection(g.NX/6, g.NY/5, g.NX/8, 0, 5, 0.05, 0.02); err != nil {
		return nil, err
	}
	if err := n.AddCTDSection(g.NX/5, g.NY/2, 0, g.NY/8, 5, 0.05, 0.02); err != nil {
		return nil, err
	}
	if err := n.AddAUVTrack(g.NX/4, g.NY/3, 1, 1, minInt(g.NX, g.NY)/2, 1, 0.08); err != nil {
		return nil, err
	}
	if err := n.AddGliderYo(g.NX/2, g.NY/6, 0, 1, 2*g.NY/3, 0.1); err != nil {
		return nil, err
	}
	return n, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
