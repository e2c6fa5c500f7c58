package core

import (
	"fmt"

	"esse/internal/grid"
)

// Scaler non-dimensionalizes packed state vectors with per-variable
// reference scales. The paper's Section 2.2 notes that the coupled
// covariance "is computed and non-dimensionalized" — without this,
// whichever variable happens to carry the largest numeric variance
// (typically the fast gravity-wave velocities) monopolizes the error
// subspace, and slow tracers like temperature never enter it.
//
// In scaled space z = x ⊘ s, every variable contributes O(1) variance
// when its errors reach the reference scale. Subspaces, perturbations
// and assimilation all operate on z; physical states are recovered with
// FromScaled.
type Scaler struct {
	Scale []float64
}

// DefaultVarScales returns reference error scales for the ocean model's
// variables: 5 cm sea-surface height, 5 cm/s currents, 0.5 °C
// temperature, 0.05 PSU salinity — the mesoscale error magnitudes of a
// coastal forecast system.
func DefaultVarScales() map[string]float64 {
	return map[string]float64{
		"eta": 0.05,
		"u":   0.05,
		"v":   0.05,
		"T":   0.5,
		"S":   0.05,
	}
}

// NewScaler builds a per-element scale vector from per-variable scales.
// Variables missing from byVar default to scale 1.
func NewScaler(l *grid.StateLayout, byVar map[string]float64) (*Scaler, error) {
	scale := make([]float64, l.Dim())
	for i := range scale {
		scale[i] = 1
	}
	for name, s := range byVar {
		if s <= 0 {
			return nil, fmt.Errorf("core: non-positive scale %v for %q", s, name)
		}
		idx := l.VarIndex(name)
		if idx < 0 {
			continue // layout may not carry every catalogued variable
		}
		sl := l.Slice(scale, idx)
		for i := range sl {
			sl[i] = s
		}
	}
	return &Scaler{Scale: scale}, nil
}

// ToScaled writes z = x ⊘ scale into dst (allocated if nil).
func (s *Scaler) ToScaled(dst, x []float64) []float64 {
	if len(x) != len(s.Scale) {
		panic("core: ToScaled dimension mismatch")
	}
	if dst == nil {
		dst = make([]float64, len(x))
	}
	for i, v := range x {
		dst[i] = v / s.Scale[i]
	}
	return dst
}

// FromScaled writes x = z ⊙ scale into dst (allocated if nil).
func (s *Scaler) FromScaled(dst, z []float64) []float64 {
	if len(z) != len(s.Scale) {
		panic("core: FromScaled dimension mismatch")
	}
	if dst == nil {
		dst = make([]float64, len(z))
	}
	for i, v := range z {
		dst[i] = v * s.Scale[i]
	}
	return dst
}

// At returns the scale of state element i.
func (s *Scaler) At(i int) float64 { return s.Scale[i] }
