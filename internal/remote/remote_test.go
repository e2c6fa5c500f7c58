package remote

import (
	"math"
	"testing"

	"esse/internal/sched"
)

func TestTable1Calibration(t *testing.T) {
	spec := sched.ESSEJob()
	want := map[string][2]float64{
		"ORNL":   {67.83, 1823.99},
		"Purdue": {6.25, 1107.40},
		"local":  {6.21, 1531.33},
	}
	sites := TeragridSites()
	if len(sites) != 3 {
		t.Fatalf("%d sites", len(sites))
	}
	for _, s := range sites {
		w, ok := want[s.Name]
		if !ok {
			t.Fatalf("unexpected site %q", s.Name)
		}
		if math.Abs(s.PertTime(spec)-w[0]) > 0.01 {
			t.Fatalf("%s pert = %v, want %v", s.Name, s.PertTime(spec), w[0])
		}
		if math.Abs(s.ModelTime(spec)-w[1]) > 0.01 {
			t.Fatalf("%s pemodel = %v, want %v", s.Name, s.ModelTime(spec), w[1])
		}
	}
}

func TestORNLPertPenaltyShape(t *testing.T) {
	// The paper's point: ORNL pert is ~10x slower than Purdue/local while
	// pemodel stays within ~1.7x — a filesystem, not CPU, effect.
	spec := sched.ESSEJob()
	sites := TeragridSites()
	var ornl, purdue Site
	for _, s := range sites {
		switch s.Name {
		case "ORNL":
			ornl = s
		case "Purdue":
			purdue = s
		}
	}
	pertRatio := ornl.PertTime(spec) / purdue.PertTime(spec)
	modelRatio := ornl.ModelTime(spec) / purdue.ModelTime(spec)
	if pertRatio < 8 {
		t.Fatalf("ORNL/Purdue pert ratio = %v, want ≈10.8", pertRatio)
	}
	if modelRatio > 2 {
		t.Fatalf("ORNL/Purdue pemodel ratio = %v, want ≈1.65", modelRatio)
	}
	if ornl.PertFSPenalty < 5 {
		t.Fatalf("ORNL filesystem penalty = %v, should dominate", ornl.PertFSPenalty)
	}
}

func TestTable2Calibration(t *testing.T) {
	spec := sched.ESSEJob()
	want := map[string][3]float64{
		"m1.small":  {13.53, 2850.14, 0.5},
		"m1.large":  {9.33, 1817.13, 2},
		"m1.xlarge": {9.14, 1860.81, 4},
		"c1.medium": {9.80, 1008.11, 2},
		"c1.xlarge": {6.67, 1030.42, 8},
	}
	insts := EC2Instances()
	if len(insts) != 5 {
		t.Fatalf("%d instance types", len(insts))
	}
	for _, it := range insts {
		w, ok := want[it.Name]
		if !ok {
			t.Fatalf("unexpected instance %q", it.Name)
		}
		if math.Abs(it.PertTime(spec)-w[0]) > 0.01 {
			t.Fatalf("%s pert = %v, want %v", it.Name, it.PertTime(spec), w[0])
		}
		if math.Abs(it.ModelTime(spec)-w[1]) > 0.01 {
			t.Fatalf("%s pemodel = %v, want %v", it.Name, it.ModelTime(spec), w[1])
		}
		if it.Cores != w[2] {
			t.Fatalf("%s cores = %v, want %v", it.Name, it.Cores, w[2])
		}
	}
}

func TestC1BeatsM1OnModel(t *testing.T) {
	// Shape: high-CPU Core2 instances run pemodel ~1.8x faster than the
	// m1 Opterons.
	spec := sched.ESSEJob()
	c1, _ := FindInstance("c1.xlarge")
	m1, _ := FindInstance("m1.xlarge")
	ratio := m1.ModelTime(spec) / c1.ModelTime(spec)
	if ratio < 1.5 || ratio > 2.2 {
		t.Fatalf("m1/c1 pemodel ratio = %v, want ~1.8", ratio)
	}
}

func TestFindInstance(t *testing.T) {
	if _, ok := FindInstance("c1.medium"); !ok {
		t.Fatal("c1.medium not found")
	}
	if _, ok := FindInstance("p5.gpu"); ok {
		t.Fatal("nonexistent instance found")
	}
}

func TestPaperCostExample(t *testing.T) {
	b := PaperCostExample()
	if math.Abs(b.TotalUSD-33.95) > 0.01 {
		t.Fatalf("worked example total = $%.4f, paper says $33.95", b.TotalUSD)
	}
	if math.Abs(b.TransferInUSD-0.15) > 1e-9 {
		t.Fatalf("transfer-in = %v", b.TransferInUSD)
	}
	if math.Abs(b.TransferOutUSD-1.7952) > 1e-9 {
		t.Fatalf("transfer-out = %v", b.TransferOutUSD)
	}
	if math.Abs(b.ComputeUSD-32) > 1e-9 {
		t.Fatalf("compute = %v", b.ComputeUSD)
	}
}

func TestHourRounding(t *testing.T) {
	// "usage of 1 hour 1 sec counts as 2 hours".
	cm := DefaultCostModel()
	it, _ := FindInstance("c1.xlarge")
	oneSecOver := cm.Cost(0, 0, 1.0003, 1, it, false)
	if oneSecOver.BilledHours != 2 {
		t.Fatalf("billed hours = %v, want 2", oneSecOver.BilledHours)
	}
	exact := cm.Cost(0, 0, 1.0, 1, it, false)
	if exact.BilledHours != 1 {
		t.Fatalf("exact hour billed as %v", exact.BilledHours)
	}
}

func TestReservedInstancesCheaper(t *testing.T) {
	cm := DefaultCostModel()
	it, _ := FindInstance("c1.xlarge")
	onDemand := cm.Cost(1.5, 10.56, 2, 20, it, false)
	reserved := cm.Cost(1.5, 10.56, 2, 20, it, true)
	if reserved.ComputeUSD*3 > onDemand.ComputeUSD {
		t.Fatalf("reserved compute ($%v) not >3x cheaper than on-demand ($%v)",
			reserved.ComputeUSD, onDemand.ComputeUSD)
	}
	if reserved.TransferInUSD != onDemand.TransferInUSD {
		t.Fatal("reservation must not change transfer pricing")
	}
}

func TestTransferStrategyOrdering(t *testing.T) {
	cfg := DefaultTransferConfig()
	push := SimulateTransfer(Push, cfg)
	pull := SimulateTransfer(Pull, cfg)
	two := SimulateTransfer(TwoStage, cfg)
	if !push.GatewayOverloaded {
		t.Fatal("960 simultaneous pushes must overload the gateway")
	}
	if pull.GatewayOverloaded || two.GatewayOverloaded {
		t.Fatal("paced strategies must not overload the gateway")
	}
	if !(two.CompletionAfterBatch <= pull.CompletionAfterBatch) {
		t.Fatalf("two-stage (%v) should beat pull (%v)",
			two.CompletionAfterBatch, pull.CompletionAfterBatch)
	}
	if !(pull.CompletionAfterBatch < push.CompletionAfterBatch) {
		t.Fatalf("pull (%v) should beat push (%v)",
			pull.CompletionAfterBatch, push.CompletionAfterBatch)
	}
	if push.PeakConcurrency != cfg.Files {
		t.Fatalf("push peak concurrency = %d", push.PeakConcurrency)
	}
	for _, st := range []TransferStrategy{Push, Pull, TwoStage} {
		if n := testing.AllocsPerRun(20, func() { SimulateTransfer(st, cfg) }); n != 0 {
			t.Errorf("SimulateTransfer(%v): %v allocs/op, want 0", st, n)
		}
	}
}

func TestTransferSmallBatchNoOverload(t *testing.T) {
	cfg := DefaultTransferConfig()
	cfg.Files = 8
	push := SimulateTransfer(Push, cfg)
	if push.GatewayOverloaded {
		t.Fatal("8 files should not overload the gateway")
	}
}

func TestStrategyString(t *testing.T) {
	if Push.String() != "push" || Pull.String() != "pull" || TwoStage.String() != "two-stage" {
		t.Fatal("strategy names")
	}
}
