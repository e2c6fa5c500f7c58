package obs

import (
	"fmt"

	"esse/internal/linalg"
)

// Points is a point-measurement operator H with diagonal error
// covariance R: observation i reads state element Offsets[i] with error
// variance R[i]. Every observing system the estimation sees is one: the
// CTD, AUV, glider and SST networks in the scaler's units (NewScaled),
// transmission loss on the coupled ocean–acoustic state
// (acoustics.NewTLNetwork) and the adaptive planner's candidate casts.
// H is never formed: applying it gathers elements or rows.
type Points struct {
	Offsets []int
	// R holds the error variances in the operator's state units.
	R []float64
	// Scale converts a physical observation value into those units
	// (value / Scale[i]); only ScaleObs reads it.
	Scale []float64
}

// NewScaled maps the network into a non-dimensionalized state space:
// if z = x ⊘ s, then observing element e of x at error σ is the same as
// observing element e of z at error σ/s[e].
func NewScaled(n *Network, scale []float64) (*Points, error) {
	if len(scale) != n.Layout.Dim() {
		return nil, fmt.Errorf("obs: scale vector has dim %d, state has %d", len(scale), n.Layout.Dim())
	}
	for i, s := range scale {
		if s <= 0 {
			return nil, fmt.Errorf("obs: non-positive scale %v at element %d", s, i)
		}
	}
	p := &Points{
		Offsets: make([]int, len(n.Obs)),
		R:       make([]float64, len(n.Obs)),
		Scale:   make([]float64, len(n.Obs)),
	}
	for i, o := range n.Obs {
		s := scale[o.offset]
		p.Offsets[i] = o.offset
		p.R[i] = o.Stddev * o.Stddev / (s * s)
		p.Scale[i] = s
	}
	return p, nil
}

// Len returns the number of observations.
func (p *Points) Len() int { return len(p.Offsets) }

// ApplyH computes y = H x.
func (p *Points) ApplyH(x []float64) []float64 {
	y := make([]float64, len(p.Offsets))
	for i, off := range p.Offsets {
		y[i] = x[off]
	}
	return y
}

// ApplyHMat computes H E for a mode matrix E (stateDim × p) by
// gathering the observed rows.
func (p *Points) ApplyHMat(e *linalg.Dense) *linalg.Dense {
	out := linalg.NewDense(len(p.Offsets), e.Cols)
	for i, off := range p.Offsets {
		copy(out.Row(i), e.Row(off))
	}
	return out
}

// ScaleObs converts physical observation values to the operator's units.
func (p *Points) ScaleObs(y []float64) []float64 {
	if len(y) != len(p.Scale) {
		panic("obs: ScaleObs length mismatch")
	}
	out := make([]float64, len(y))
	for i, v := range y {
		out[i] = v / p.Scale[i]
	}
	return out
}
