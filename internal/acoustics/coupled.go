package acoustics

import (
	"fmt"

	"esse/internal/core"
	"esse/internal/linalg"
	"esse/internal/obs"
)

// This file implements the coupled physical-acoustical estimation of the
// paper's Section 2.2: "The coupled physical-acoustical covariance P for
// the section is computed and non-dimensionalized. Its dominant
// eigenvectors (uncertainty modes) can be used for coupled physical-
// acoustical assimilation of hydrographic and TL data. ESSE has also
// been extended to acoustic data assimilation."
//
// The coupled state stacks the (already non-dimensionalized) ocean state
// with the TL field scaled by a reference uncertainty; the coupled error
// subspace then carries ocean–acoustic cross-covariances, so assimilating
// a transmission-loss measurement updates the ocean fields and vice
// versa.

// CoupledEnsemble holds the coupled ocean+TL ensemble statistics.
type CoupledEnsemble struct {
	OceanDim int
	TLRows   int // range cells
	TLCols   int // depth cells
	// TLScale non-dimensionalizes TL (dB); ~a few dB of expected
	// acoustic uncertainty.
	TLScale float64

	Mean     []float64 // coupled mean [ocean_z ; TL/TLScale]
	Subspace *core.Subspace
}

// NewCoupledEnsemble builds the coupled mean and error subspace from
// per-member scaled ocean states and their TL fields. maxRank truncates
// the coupled subspace (0 keeps all non-degenerate modes).
func NewCoupledEnsemble(oceanZ [][]float64, tl []*TLField, tlScale float64, maxRank int) (*CoupledEnsemble, error) {
	n := len(oceanZ)
	if n < 2 {
		return nil, fmt.Errorf("acoustics: coupled ensemble needs >= 2 members, got %d", n)
	}
	if len(tl) != n {
		return nil, fmt.Errorf("acoustics: %d ocean members but %d TL fields", n, len(tl))
	}
	if tlScale <= 0 {
		return nil, fmt.Errorf("acoustics: non-positive TL scale %v", tlScale)
	}
	oceanDim := len(oceanZ[0])
	tlRows, tlCols := tl[0].TL.Rows, tl[0].TL.Cols
	tlDim := tlRows * tlCols
	dim := oceanDim + tlDim

	// Stack the members: the coupled statistics are the snapshots'.
	stacked := linalg.NewDense(dim, n)
	for j := 0; j < n; j++ {
		if len(oceanZ[j]) != oceanDim {
			return nil, fmt.Errorf("acoustics: member %d ocean dim %d != %d", j, len(oceanZ[j]), oceanDim)
		}
		if tl[j].TL.Rows != tlRows || tl[j].TL.Cols != tlCols {
			return nil, fmt.Errorf("acoustics: member %d TL shape mismatch", j)
		}
		for i, v := range oceanZ[j] {
			stacked.Set(i, j, v)
		}
		for i, v := range tl[j].TL.Data {
			stacked.Set(oceanDim+i, j, v/tlScale)
		}
	}
	sub, mean := core.SubspaceFromSnapshots(stacked, maxRank)
	return &CoupledEnsemble{
		OceanDim: oceanDim,
		TLRows:   tlRows,
		TLCols:   tlCols,
		TLScale:  tlScale,
		Mean:     mean,
		Subspace: sub,
	}, nil
}

// TLPart returns the TL block of a coupled vector in dB.
func (c *CoupledEnsemble) TLPart(coupled []float64) []float64 {
	out := make([]float64, c.TLRows*c.TLCols)
	for i := range out {
		out[i] = coupled[c.OceanDim+i] * c.TLScale
	}
	return out
}

// TLObservation is one transmission-loss measurement at a TL grid cell.
type TLObservation struct {
	RI, ZI int
	// Stddev is the measurement error in dB.
	Stddev float64
}

// NewTLNetwork validates the observations against the ensemble's TL grid
// and returns them as a point operator over the coupled state: each reads
// its TL cell, in dB over TLScale.
func (c *CoupledEnsemble) NewTLNetwork(tl []TLObservation) (*obs.Points, error) {
	p := &obs.Points{
		Offsets: make([]int, len(tl)),
		R:       make([]float64, len(tl)),
		Scale:   make([]float64, len(tl)),
	}
	for i, o := range tl {
		if o.RI < 0 || o.RI >= c.TLRows || o.ZI < 0 || o.ZI >= c.TLCols {
			return nil, fmt.Errorf("acoustics: TL obs %d at (%d,%d) outside %dx%d grid",
				i, o.RI, o.ZI, c.TLRows, c.TLCols)
		}
		if o.Stddev <= 0 {
			return nil, fmt.Errorf("acoustics: TL obs %d has non-positive error", i)
		}
		s := o.Stddev / c.TLScale
		p.Offsets[i] = c.OceanDim + o.RI*c.TLCols + o.ZI
		p.R[i] = s * s
		p.Scale[i] = c.TLScale
	}
	return p, nil
}

// AssimilateTL performs the coupled update: TL measurements (dB) adjust
// the whole coupled state — including the ocean fields, through the
// ocean–acoustic cross-covariances of the subspace. It returns the
// analysis and replaces the ensemble mean and subspace with the
// posterior.
func (c *CoupledEnsemble) AssimilateTL(net *obs.Points, yDB []float64) (*core.Analysis, error) {
	if len(yDB) != net.Len() {
		return nil, fmt.Errorf("acoustics: %d TL observations but %d values", net.Len(), len(yDB))
	}
	an, err := core.Assimilate(c.Mean, c.Subspace, net, net.ScaleObs(yDB))
	if err != nil {
		return nil, err
	}
	c.Mean = an.Mean
	c.Subspace = an.Posterior
	return an, nil
}
