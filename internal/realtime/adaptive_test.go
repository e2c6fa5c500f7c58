package realtime

import (
	"context"
	"slices"
	"testing"
)

func TestAdaptiveCastsPlannedAndUsed(t *testing.T) {
	cfg := tinyConfig()
	cfg.AdaptiveCasts = 3
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseObs := sys.Network.Len()
	r, err := sys.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.AdaptiveCasts) != 3 {
		t.Fatalf("planned %d casts, want 3", len(r.AdaptiveCasts))
	}
	wantObs := baseObs + 3*cfg.NZ // full-depth T casts
	if r.Observations != wantObs {
		t.Fatalf("cycle used %d observations, want %d", r.Observations, wantObs)
	}
	// Distinct locations.
	seen := map[[2]int]bool{}
	for _, loc := range r.AdaptiveCasts {
		if seen[loc] {
			t.Fatalf("duplicate adaptive cast at %v", loc)
		}
		seen[loc] = true
		g := sys.Layout.G
		if !g.InBounds(loc[0], loc[1]) {
			t.Fatalf("cast outside grid: %v", loc)
		}
	}
}

func TestAdaptiveCastsHelpOrMatchStatic(t *testing.T) {
	// Same seed with and without adaptive casts: extra well-placed
	// observations must not hurt the analysis.
	run := func(casts int) float64 {
		cfg := tinyConfig()
		cfg.AdaptiveCasts = casts
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		results, err := sys.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			total += r.RMSEAnalysisT
		}
		return total
	}
	static := run(0)
	adapt := run(5)
	// Allow a small tolerance: the obs noise realizations differ.
	if adapt > static*1.15 {
		t.Fatalf("adaptive sampling hurt: %v vs %v", adapt, static)
	}
}

func TestPlanAdaptiveCastsValidation(t *testing.T) {
	sys, err := NewSystem(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.PlanAdaptiveCasts(sys.Subspace(), 0, 0.05); err == nil {
		t.Fatal("zero casts accepted")
	}
}

// TestPlanAdaptiveCastsPicks pins the planner's picks at a fixed seed:
// each candidate's error variance is (σ/s)² in the scaler's units, and a
// change in those bits or in the candidate order moves the list.
func TestPlanAdaptiveCastsPicks(t *testing.T) {
	sys, err := NewSystem(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	locs, err := sys.PlanAdaptiveCasts(sys.Subspace(), 3, AdaptiveCastStd)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][2]int{{6, 6}, {7, 6}, {5, 2}}; !slices.Equal(locs, want) {
		t.Fatalf("planned casts %v, want %v", locs, want)
	}
}

func TestPlanAdaptiveCastsTargetsUncertainty(t *testing.T) {
	// The first planned cast must sit at (or adjacent to) the SST
	// uncertainty maximum.
	sys, err := NewSystem(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	locs, err := sys.PlanAdaptiveCasts(sys.Subspace(), 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sst, err := sys.UncertaintyField("T", 0)
	if err != nil {
		t.Fatal(err)
	}
	g := sys.Layout.G
	// Variance at the chosen point must be within the top decile.
	var vals []float64
	vals = append(vals, sst...)
	chosen := sst[g.Idx2(locs[0][0], locs[0][1])]
	higher := 0
	for _, v := range vals {
		if v > chosen {
			higher++
		}
	}
	if frac := float64(higher) / float64(len(vals)); frac > 0.1 {
		t.Fatalf("first cast at a point with %.0f%% of the field more uncertain", frac*100)
	}
}
