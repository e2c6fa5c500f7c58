// Package adaptive implements the adaptive-sampling extension the paper
// points to in its future work (Section 7, refs. Heaney et al. 2007, Lam
// et al. 2009, Yilmaz et al. 2008): use the predicted ESSE error
// subspace to decide where to observe next, so the observing system
// (AUV/glider tracks, CTD stations) targets the largest uncertainties.
//
// Planning works entirely in the subspace: with modes E and mode
// covariance Γ (initialized to diag(σ²)), observing state element e with
// error variance r performs the rank-one update
//
//	Γ ← Γ − Γ hᵀ (h Γ hᵀ + r)⁻¹ h Γ,   h = E[e,:]
//
// whose trace decrease is exactly the expected total variance reduction.
// The greedy planner applies this update sequentially, so later picks
// account for the information earlier picks already bought — the reason
// greedy beats "top-k variance" when uncertainties are correlated.
package adaptive

import (
	"fmt"

	"esse/internal/core"
	"esse/internal/linalg"
	"esse/internal/obs"
)

// Plan is the planner's output: the indices of the chosen candidate
// observations in pick order and the cumulative expected variance
// reduction after each pick.
type Plan struct {
	Chosen    []int
	Reduction []float64
}

// Greedy selects k of the candidate observations by sequential
// expected-variance-reduction; each candidate reads state element
// cands.Offsets[i] with error variance cands.R[i] in the subspace's
// units. The subspace is not modified. Complexity O(k · |cands| · p²).
func Greedy(sub *core.Subspace, cands *obs.Points, k int) (*Plan, error) {
	if k <= 0 {
		return nil, fmt.Errorf("adaptive: non-positive pick count %d", k)
	}
	n := cands.Len()
	if n == 0 {
		return nil, fmt.Errorf("adaptive: no candidates")
	}
	if k > n {
		k = n
	}
	p := sub.Rank()
	dim := sub.StateDim()
	for i, off := range cands.Offsets {
		if off < 0 || off >= dim {
			return nil, fmt.Errorf("adaptive: candidate %d offset %d outside state dim %d", i, off, dim)
		}
		if cands.R[i] <= 0 {
			return nil, fmt.Errorf("adaptive: candidate %d has non-positive error", i)
		}
	}

	// Γ starts diagonal; rank-one updates make it dense.
	gamma := linalg.NewDense(p, p)
	for j := 0; j < p; j++ {
		gamma.Set(j, j, sub.Sigma[j]*sub.Sigma[j])
	}

	plan := &Plan{Chosen: make([]int, 0, k), Reduction: make([]float64, 0, k)}
	used := make(map[int]bool)
	total := 0.0
	gh := make([]float64, p)
	for pick := 0; pick < k; pick++ {
		bestIdx, bestGain := -1, -1.0
		for ci, off := range cands.Offsets {
			if used[ci] {
				continue
			}
			gain := varianceGain(gamma, sub.Modes.Row(off), cands.R[ci], gh)
			if gain > bestGain {
				bestGain = gain
				bestIdx = ci
			}
		}
		if bestIdx < 0 {
			break
		}
		used[bestIdx] = true
		applyRankOneUpdate(gamma, sub.Modes.Row(cands.Offsets[bestIdx]), cands.R[bestIdx], gh)
		total += bestGain
		plan.Chosen = append(plan.Chosen, bestIdx)
		plan.Reduction = append(plan.Reduction, total)
	}
	return plan, nil
}

// varianceGain computes tr(Γ hᵀ (h Γ hᵀ + r)⁻¹ h Γ) = ‖Γh‖² / (hΓhᵀ + r).
func varianceGain(gamma *linalg.Dense, h []float64, r float64, gh []float64) float64 {
	p := gamma.Rows
	// gh = Γ h  (Γ symmetric).
	for i := 0; i < p; i++ {
		gh[i] = linalg.Dot(gamma.Row(i), h)
	}
	hgh := linalg.Dot(h, gh)
	den := hgh + r
	if den <= 0 {
		return 0
	}
	num := 0.0
	for _, v := range gh {
		num += v * v
	}
	return num / den
}

// applyRankOneUpdate performs Γ ← Γ − (Γh)(Γh)ᵀ/(hΓhᵀ + r) in place.
func applyRankOneUpdate(gamma *linalg.Dense, h []float64, r float64, gh []float64) {
	p := gamma.Rows
	for i := 0; i < p; i++ {
		gh[i] = linalg.Dot(gamma.Row(i), h)
	}
	den := linalg.Dot(h, gh) + r
	if den <= 0 {
		return
	}
	for i := 0; i < p; i++ {
		gi := gh[i] / den
		row := gamma.Row(i)
		for j := 0; j < p; j++ {
			row[j] -= gi * gh[j]
		}
	}
}
