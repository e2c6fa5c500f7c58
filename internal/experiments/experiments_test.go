package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"esse/internal/core"
	"esse/internal/realtime"
)

func smallRealtimeConfig() realtime.Config {
	cfg := realtime.DefaultConfig()
	cfg.NX, cfg.NY, cfg.NZ = 10, 10, 3
	cfg.Cycles = 2
	cfg.StepsPerCycle = 8
	cfg.SnapshotCount = 6
	cfg.SnapshotStride = 4
	cfg.InitialRank = 5
	cfg.Ensemble.InitialSize = 8
	cfg.Ensemble.MaxSize = 10
	cfg.Ensemble.SVDBatch = 4
	cfg.Ensemble.Workers = 4
	cfg.Ensemble.Criterion = core.ConvergenceCriterion{MinSimilarity: 0.5, MaxVarianceChange: 0.9}
	return cfg
}

func TestTable1RowsMatchPaper(t *testing.T) {
	rows, text := Table1()
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if math.Abs(rows[0].Pert-67.83) > 0.01 || math.Abs(rows[0].Model-1823.99) > 0.01 {
		t.Fatalf("ORNL row = %+v", rows[0])
	}
	for _, want := range []string{"ORNL", "Purdue", "local", "pemodel"} {
		if !strings.Contains(text, want) {
			t.Fatalf("table text missing %q:\n%s", want, text)
		}
	}
}

func TestTable2RowsMatchPaper(t *testing.T) {
	rows, text := Table2()
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Instance] = r
	}
	if r := byName["c1.xlarge"]; math.Abs(r.Pert-6.67) > 0.01 || math.Abs(r.Model-1030.42) > 0.01 || r.Cores != 8 {
		t.Fatalf("c1.xlarge row = %+v", r)
	}
	if !strings.Contains(text, "m1.small") {
		t.Fatal("table text missing m1.small")
	}
}

func TestLocalTimingsShape(t *testing.T) {
	res, text := LocalTimings(600, 6000, 210, 1)
	// ~77 min all-local vs ~86 min mixed (shape: 3-30% slower).
	ratio := res.MixedSGE.Makespan / res.LocalSGE.Makespan
	if ratio < 1.03 || ratio > 1.3 {
		t.Fatalf("mixed/local ratio = %v", ratio)
	}
	// Condor 10-20% slower than SGE.
	cRatio := res.LocalCondor.Makespan / res.LocalSGE.Makespan
	if cRatio < 1.05 || cRatio > 1.25 {
		t.Fatalf("condor/SGE ratio = %v", cRatio)
	}
	if res.Acoustics.JobsCompleted != 6000 {
		t.Fatalf("acoustics jobs = %d", res.Acoustics.JobsCompleted)
	}
	if !strings.Contains(text, "min") {
		t.Fatal("timings text missing units")
	}
}

func TestCostExampleMatchesPaper(t *testing.T) {
	b, text := CostExample()
	if math.Abs(b.TotalUSD-33.95) > 0.01 {
		t.Fatalf("total = %v", b.TotalUSD)
	}
	if !strings.Contains(text, "33.95") {
		t.Fatalf("cost text:\n%s", text)
	}
}

func TestFig1TimelinesRender(t *testing.T) {
	cycles, text, err := Fig1Timelines(smallRealtimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cycles) != 2 {
		t.Fatalf("cycles = %d", len(cycles))
	}
	for _, want := range []string{"observation time", "forecaster time", "simulation time"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Fig1 text missing %q", want)
		}
	}
}

func TestFig2CycleRuns(t *testing.T) {
	res, text, err := Fig2ESSECycle(smallRealtimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rank < 1 || res.Cycle.Ensemble.MembersUsed < 2 {
		t.Fatalf("degenerate Fig2 result: %+v", res)
	}
	if !strings.Contains(text, "SVD rounds") {
		t.Fatal("Fig2 text incomplete")
	}
}

func TestFig3Fig4SpeedupAndEquivalence(t *testing.T) {
	res, text, err := Fig3Fig4Comparison(16, 8, 3*time.Millisecond, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup <= 1.5 {
		t.Fatalf("MTC speedup = %v, want > 1.5 with 8 workers", res.Speedup)
	}
	if res.SubspaceAgree < 1-1e-8 {
		t.Fatalf("serial and parallel subspaces disagree: %v", res.SubspaceAgree)
	}
	if !strings.Contains(text, "speedup") {
		t.Fatal("Fig3/4 text incomplete")
	}
}

func TestFig5Fig6Fields(t *testing.T) {
	res, text, err := Fig5Fig6Uncertainty(smallRealtimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SST) != res.NX*res.NY || len(res.Deep) != res.NX*res.NY {
		t.Fatal("field sizes wrong")
	}
	nonZero := 0
	for _, v := range res.SST {
		if v > 0 {
			nonZero++
		}
		if v < 0 {
			t.Fatal("negative std-dev")
		}
	}
	if nonZero == 0 {
		t.Fatal("SST uncertainty identically zero")
	}
	if !strings.Contains(text, "Fig 5") || !strings.Contains(text, "Fig 6") {
		t.Fatal("figure text incomplete")
	}
	if len(res.Cycles) != 2 {
		t.Fatalf("cycles = %d", len(res.Cycles))
	}
}
