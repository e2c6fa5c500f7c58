package realtime

import (
	"context"
	"testing"

	"esse/internal/core"
)

// tinyConfig returns a configuration small enough for unit tests.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.NX, cfg.NY, cfg.NZ = 10, 10, 3
	cfg.Cycles = 2
	cfg.StepsPerCycle = 10
	cfg.SnapshotCount = 8
	cfg.SnapshotStride = 5
	cfg.InitialRank = 6
	cfg.Ensemble.InitialSize = 8
	cfg.Ensemble.MaxSize = 12
	cfg.Ensemble.SVDBatch = 4
	cfg.Ensemble.Workers = 4
	cfg.Ensemble.Criterion = core.ConvergenceCriterion{MinSimilarity: 0.5, MaxVarianceChange: 0.9}
	return cfg
}

func TestNewSystemValidation(t *testing.T) {
	bad := tinyConfig()
	bad.Cycles = 0
	if _, err := NewSystem(bad); err == nil {
		t.Fatal("zero cycles accepted")
	}
	bad2 := tinyConfig()
	bad2.SnapshotCount = 1
	if _, err := NewSystem(bad2); err == nil {
		t.Fatal("single snapshot accepted")
	}
}

func TestSystemInitialState(t *testing.T) {
	sys, err := NewSystem(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sys.Subspace() == nil || sys.Subspace().Rank() < 1 {
		t.Fatal("no initial subspace")
	}
	if err := sys.Subspace().Check(1e-7); err != nil {
		t.Fatal(err)
	}
	if len(sys.Analysis()) != sys.Layout.Dim() {
		t.Fatal("analysis dimension mismatch")
	}
	if sys.Network.Len() == 0 {
		t.Fatal("empty observation network")
	}
}

func TestRunCycleProducesDiagnostics(t *testing.T) {
	sys, err := NewSystem(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycle != 0 {
		t.Fatalf("cycle number = %d", res.Cycle)
	}
	if res.RMSEForecastT <= 0 {
		t.Fatal("forecast must differ from truth in a twin experiment")
	}
	if res.Ensemble == nil || res.Ensemble.MembersUsed < 2 {
		t.Fatal("ensemble did not run")
	}
	if res.ResidualNorm >= res.InnovationNorm {
		t.Fatalf("assimilation did not reduce the innovation: %v -> %v",
			res.InnovationNorm, res.ResidualNorm)
	}
	if res.Observations != sys.Network.Len() {
		t.Fatal("observation count mismatch")
	}
}

func TestAssimilationImprovesAnalysis(t *testing.T) {
	sys, err := NewSystem(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	improved := 0
	results, err := sys.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.RMSEAnalysisT < r.RMSEForecastT {
			improved++
		}
	}
	if improved == 0 {
		t.Fatal("assimilation never improved temperature RMSE")
	}
}

func TestSubspaceEvolvesAcrossCycles(t *testing.T) {
	sys, err := NewSystem(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Subspace().Clone()
	if _, err := sys.RunCycle(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := sys.Subspace()
	if err := after.Check(1e-6); err != nil {
		t.Fatal(err)
	}
	// Posterior variance should not exceed the forecast ensemble's, and
	// the subspace should have actually changed from the initial one.
	rho := core.SimilarityCoefficient(before, after)
	if rho > 1-1e-12 && before.TotalVariance() == after.TotalVariance() {
		t.Fatal("subspace did not evolve over a cycle")
	}
}

func TestUncertaintyFields(t *testing.T) {
	sys, err := NewSystem(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunCycle(context.Background()); err != nil {
		t.Fatal(err)
	}
	sst, err := sys.UncertaintyField("T", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sst) != sys.Cfg.NX*sys.Cfg.NY {
		t.Fatalf("SST uncertainty field has %d points", len(sst))
	}
	nonZero := 0
	for _, v := range sst {
		if v < 0 {
			t.Fatal("negative standard deviation")
		}
		if v > 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("uncertainty field identically zero")
	}
	deep, err := sys.UncertaintyField("T", sys.LevelNearestDepth(30))
	if err != nil {
		t.Fatal(err)
	}
	if len(deep) != len(sst) {
		t.Fatal("level field size mismatch")
	}
	if _, err := sys.UncertaintyField("nope", 0); err == nil {
		t.Fatal("unknown variable accepted")
	}
	if _, err := sys.UncertaintyField("T", 99); err == nil {
		t.Fatal("bad level accepted")
	}
}

func TestDeterministicTwinExperiment(t *testing.T) {
	// The scientific results (RMSE series) must be reproducible under a
	// fixed seed even though members run concurrently.
	run := func() []float64 {
		cfg := tinyConfig()
		cfg.Ensemble.Criterion = core.ConvergenceCriterion{MinSimilarity: 2} // fixed member count
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
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("twin experiment not reproducible: %v vs %v", a, b)
		}
	}
}
