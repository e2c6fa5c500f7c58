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
)

// Candidate is a potential observation of one state element.
type Candidate struct {
	// Offset is the flat index into the (scaled) state vector.
	Offset int
	// Stddev is the observation error in scaled units.
	Stddev float64
	// Label is free-form (e.g. "glider T (4,7) 30m").
	Label string
}

// Plan is the planner's output: chosen candidate indices in pick order
// and the cumulative expected variance reduction after each pick.
type Plan struct {
	Chosen    []int
	Reduction []float64
}

// Greedy selects k candidates by sequential expected-variance-reduction.
// The subspace is not modified. Complexity O(k · |cands| · p²).
func Greedy(sub *core.Subspace, cands []Candidate, k int) (*Plan, error) {
	if k <= 0 {
		return nil, fmt.Errorf("adaptive: non-positive pick count %d", k)
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("adaptive: no candidates")
	}
	if k > len(cands) {
		k = len(cands)
	}
	p := sub.Rank()
	dim := sub.StateDim()
	for i, c := range cands {
		if c.Offset < 0 || c.Offset >= dim {
			return nil, fmt.Errorf("adaptive: candidate %d offset %d outside state dim %d", i, c.Offset, dim)
		}
		if c.Stddev <= 0 {
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
		for ci, c := range cands {
			if used[ci] {
				continue
			}
			h := sub.Modes.Row(c.Offset)
			gain := varianceGain(gamma, h, c.Stddev*c.Stddev, gh)
			if gain > bestGain {
				bestGain = gain
				bestIdx = ci
			}
		}
		if bestIdx < 0 {
			break
		}
		used[bestIdx] = true
		c := cands[bestIdx]
		applyRankOneUpdate(gamma, sub.Modes.Row(c.Offset), c.Stddev*c.Stddev, gh)
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
