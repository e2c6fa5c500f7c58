package core

import (
	"fmt"

	"esse/internal/linalg"
	"esse/internal/obs"
)

// This file implements the smoothing extension of ESSE (Lermusiaux,
// Robinson, Haley & Leslie 2002, "Filtering and smoothing via Error
// Subspace Statistical Estimation" — reference [16] of the paper):
// observations at a later time improve the estimate at an earlier time
// through the ensemble cross-covariance between the two times.
//
// With member anomaly matrices A₀ (earlier time) and A₁ (later time)
// sharing column ↔ member alignment, the smoother gain applied to the
// later-time innovation d = y − H x₁ is
//
//	K₀ = A₀ (H A₁)ᵀ [ (H A₁)(H A₁)ᵀ + (N−1) R ]⁻¹
//
// so  x₀ˢ = x₀ + K₀ d.  (The (N−1) factors cancel against the sample-
// covariance normalization.)

// SmootherResult carries the smoothed earlier-time estimate.
type SmootherResult struct {
	// Mean is the smoothed earlier-time state.
	Mean []float64
	// IncrementNorm is ‖x₀ˢ − x₀‖ (diagnostic).
	IncrementNorm float64
}

// SmoothPrevious updates the earlier-time mean x0 with the later-time
// innovation d = y − H x₁ (the observations minus H of the later-time
// forecast mean, in the operator's units) through the member-aligned
// anomaly matrices. The two anomaly matrices must have identical column
// counts with column j of each belonging to the same ensemble member
// (the workflow accumulator's Indices bookkeeping provides exactly this
// alignment).
func SmoothPrevious(x0 []float64, anoms0, anoms1 *linalg.Dense, pts *obs.Points, d []float64) (*SmootherResult, error) {
	n := anoms0.Cols
	if anoms1.Cols != n {
		return nil, fmt.Errorf("core: smoother anomaly column mismatch %d vs %d", n, anoms1.Cols)
	}
	if n < 2 {
		return nil, fmt.Errorf("core: smoother needs >= 2 members, got %d", n)
	}
	if len(x0) != anoms0.Rows {
		return nil, fmt.Errorf("core: smoother state dim %d != anomalies %d", len(x0), anoms0.Rows)
	}
	m := pts.Len()
	if len(d) != m {
		return nil, fmt.Errorf("core: %d observations but %d values", m, len(d))
	}
	out := &SmootherResult{Mean: append([]float64(nil), x0...)}
	if m == 0 {
		return out, nil
	}

	ha1 := pts.ApplyHMat(anoms1) // m × n

	// S = (HA₁)(HA₁)ᵀ + (N−1) R.
	s := linalg.MulBT(ha1, ha1)
	for i := 0; i < m; i++ {
		s.Set(i, i, s.At(i, i)+float64(n-1)*pts.R[i])
	}

	sInv, ok := linalg.InvertSPD(s)
	if !ok {
		return nil, fmt.Errorf("core: smoother innovation covariance not positive definite")
	}
	sid := linalg.MatVec(sInv, d)    // S⁻¹ d
	w := linalg.MatTVec(ha1, sid)    // (HA₁)ᵀ S⁻¹ d  (n)
	incr := linalg.MatVec(anoms0, w) // A₀ … (stateDim)
	out.IncrementNorm = linalg.Norm2(incr)
	for i := range out.Mean {
		out.Mean[i] += incr[i]
	}
	return out, nil
}
