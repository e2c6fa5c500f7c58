package obs

import (
	"fmt"

	"esse/internal/linalg"
)

// ScaledNetwork adapts a Network to a non-dimensionalized state space:
// if z = x ⊘ s, then observing element e of x at error σ is the same as
// observing element e of z at error σ/s[e]. It satisfies core.ObsOperator,
// so assimilation in scaled space needs no other changes.
type ScaledNetwork struct {
	n     *Network
	scale []float64 // per state element
}

// NewScaled wraps the network with the per-element state scales.
func NewScaled(n *Network, scale []float64) (*ScaledNetwork, error) {
	if len(scale) != n.Layout.Dim() {
		return nil, fmt.Errorf("obs: scale vector has dim %d, state has %d", len(scale), n.Layout.Dim())
	}
	for i, s := range scale {
		if s <= 0 {
			return nil, fmt.Errorf("obs: non-positive scale %v at element %d", s, i)
		}
	}
	return &ScaledNetwork{n: n, scale: scale}, nil
}

// Len returns the number of observations.
func (s *ScaledNetwork) Len() int { return s.n.Len() }

// ApplyH gathers the observed elements of a SCALED state vector.
func (s *ScaledNetwork) ApplyH(z []float64) []float64 { return s.n.ApplyH(z) }

// ApplyHMat gathers the observed rows of a scaled-space mode matrix.
func (s *ScaledNetwork) ApplyHMat(e *linalg.Dense) *linalg.Dense { return s.n.ApplyHMat(e) }

// RDiag returns the observation error variances in scaled units.
func (s *ScaledNetwork) RDiag() []float64 {
	r := s.n.RDiag()
	for i, o := range s.n.Obs {
		sc := s.scale[o.offset]
		r[i] /= sc * sc
	}
	return r
}

// ScaleObs converts physical observation values to scaled units.
func (s *ScaledNetwork) ScaleObs(y []float64) []float64 {
	if len(y) != len(s.n.Obs) {
		panic("obs: ScaleObs length mismatch")
	}
	out := make([]float64, len(y))
	for i, o := range s.n.Obs {
		out[i] = y[i] / s.scale[o.offset]
	}
	return out
}
