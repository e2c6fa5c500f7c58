package realtime

import (
	"fmt"

	"esse/internal/adaptive"
	"esse/internal/core"
	"esse/internal/obs"
)

// PlanAdaptiveCasts uses the current forecast error subspace (scaled
// space) to choose `casts` horizontal locations for additional full-depth
// virtual CTD casts — the adaptive-sampling loop the paper's Section 7
// points to: "To achieve optimal and adaptive sampling ... can be
// combined with our uncertainty estimations."
//
// Candidates are the surface temperature elements; selection is the
// sequential greedy expected-variance-reduction planner, so the chosen
// casts target the largest *remaining* uncertainties rather than k
// copies of the same hot spot.
func (s *System) PlanAdaptiveCasts(sub *core.Subspace, casts int, tStd float64) ([][2]int, error) {
	if casts <= 0 {
		return nil, fmt.Errorf("realtime: non-positive cast count %d", casts)
	}
	g := s.Layout.G
	tIdx := s.Layout.VarIndex("T")
	if tIdx < 0 {
		return nil, fmt.Errorf("realtime: layout lacks temperature")
	}
	// Candidate c is the cast at (c mod NX, c div NX).
	cands := &obs.Points{Offsets: make([]int, g.NX*g.NY), R: make([]float64, g.NX*g.NY)}
	for c := range cands.Offsets {
		off := s.Layout.Offset(tIdx, c%g.NX, c/g.NX, 0)
		sd := tStd / s.scaler.At(off) // scaled obs error
		cands.Offsets[c] = off
		cands.R[c] = sd * sd
	}
	plan, err := adaptive.Greedy(sub, cands, casts)
	if err != nil {
		return nil, err
	}
	out := make([][2]int, len(plan.Chosen))
	for k, c := range plan.Chosen {
		out[k] = [2]int{c % g.NX, c / g.NX}
	}
	return out, nil
}

// AugmentedNetwork returns a copy of the base observation network with
// full-depth T casts added at the given locations.
func (s *System) AugmentedNetwork(castLocs [][2]int, tStd float64) (*obs.Network, *obs.Points, error) {
	n := obs.NewNetwork(s.Layout)
	for _, o := range s.Network.Obs {
		if err := n.Add(o); err != nil {
			return nil, nil, err
		}
	}
	g := s.Layout.G
	for _, loc := range castLocs {
		for k := 0; k < g.NZ; k++ {
			if err := n.Add(obs.Observation{
				Platform: obs.CTD, Var: "T", I: loc[0], J: loc[1], K: k, Stddev: tStd,
			}); err != nil {
				return nil, nil, err
			}
		}
	}
	sn, err := obs.NewScaled(n, s.scaler.Scale)
	if err != nil {
		return nil, nil, err
	}
	return n, sn, nil
}
