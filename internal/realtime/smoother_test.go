package realtime

import (
	"context"
	"slices"
	"testing"

	"esse/internal/linalg"
)

func TestSmoothingReanalyzesCycleStart(t *testing.T) {
	cfg := tinyConfig()
	cfg.Smooth = true
	cfg.Cycles = 3
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := sys.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	improved := 0
	for _, r := range results {
		if r.SmoothedStart == nil {
			t.Fatalf("cycle %d missing smoothed state", r.Cycle)
		}
		if len(r.SmoothedStart) != sys.Layout.Dim() {
			t.Fatal("smoothed state has wrong dimension")
		}
		if r.RMSEStartT <= 0 {
			t.Fatal("missing start RMSE diagnostic")
		}
		if r.RMSESmoothedStartT < r.RMSEStartT {
			improved++
		}
	}
	if improved == 0 {
		t.Fatalf("smoothing never improved the cycle-start estimate: %+v",
			[]float64{results[0].RMSEStartT, results[0].RMSESmoothedStartT})
	}
}

func TestSmoothingOffByDefault(t *testing.T) {
	sys, err := NewSystem(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.SmoothedStart != nil || r.RMSEStartT != 0 {
		t.Fatal("smoothing artifacts present with Smooth=false")
	}
}

func TestSmoothingDoesNotChangeFilter(t *testing.T) {
	// The smoother is a diagnostic reanalysis: the forward filter
	// trajectory must be identical with and without it.
	run := func(smooth bool) []float64 {
		cfg := tinyConfig()
		cfg.Smooth = smooth
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results, err := sys.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, r := range results {
			out = append(out, r.RMSEForecastT, r.RMSEAnalysisT)
		}
		return out
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("smoothing changed the forward filter: %v vs %v", a, b)
		}
	}
}

// TestSmootherUsesTheFilterObservations: the smoother's innovation is
// the observation vector the filter assimilated, restricted to the base
// network, minus H of the forecast mean — not a second draw of the
// measurement noise. The test rebuilds the filter's observations and
// the members' initial perturbations from their noise streams, and the
// smoothed state must be what smoothStart gives for them, bit for bit.
// Adaptive casts are on, so the filter's network is the base one plus
// casts after it.
func TestSmootherUsesTheFilterObservations(t *testing.T) {
	cfg := tinyConfig()
	cfg.Smooth = true
	cfg.AdaptiveCasts = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prior, start := sys.Subspace(), slices.Clone(sys.Analysis())
	r, err := sys.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cycleSeed := sys.seeds.Split(1000)
	ens := r.Ensemble
	cache := newPertCache()
	for _, idx := range ens.MemberIndices {
		cache.put(idx, prior.Perturb(nil, cycleSeed.Split(uint64(idx+1)), cfg.WhiteNoise))
	}
	network, scaled, err := sys.AugmentedNetwork(r.AdaptiveCasts, AdaptiveCastStd)
	if err != nil {
		t.Fatal(err)
	}
	yz := scaled.ScaleObs(network.Sample(sys.TruthState(), cycleSeed.Split(999)))
	innovZ := linalg.VecSub(yz[:sys.Network.Len()], sys.scaled.ApplyH(ens.Mean))
	want, err := sys.smoothStart(start, cache, ens.Anomalies, ens.MemberIndices, innovZ)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r.SmoothedStart, want) {
		t.Fatal("the smoothed start is not the reanalysis with the filter's observations")
	}
}
