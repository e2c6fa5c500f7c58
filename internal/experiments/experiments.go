// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment returns both machine-readable results and
// a formatted text block whose rows mirror what the paper reports.
// cmd/repro prints the text; TestGolden pins every deterministic number
// at cmd/repro's configuration in testdata/golden.json.
//
// Index (see DESIGN.md for the full mapping):
//
//	Fig1  — forecasting timelines            → Fig1Timelines
//	Fig2  — the ESSE algorithm (one cycle)   → Fig2ESSECycle
//	Fig3  — serial ESSE implementation       → Fig3Fig4Comparison
//	Fig4  — parallel ESSE implementation     → Fig3Fig4Comparison
//	Tab1  — pert/pemodel on TeraGrid hosts   → Table1
//	Tab2  — pert/pemodel on EC2 instances    → Table2
//	§5.2.1 local-cluster timings             → LocalTimings
//	§5.4.2 EC2 cost worked example           → CostExample
//	Fig5  — SST uncertainty map              → Fig5Fig6Uncertainty
//	Fig6  — 30 m temperature uncertainty map → Fig5Fig6Uncertainty
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"esse/internal/cluster"
	"esse/internal/core"
	"esse/internal/metrics"
	"esse/internal/realtime"
	"esse/internal/remote"
	"esse/internal/sched"
	"esse/internal/telemetry"
	"esse/internal/workflow"
)

// ---------------------------------------------------------------------------
// Table 1

// Table1Row is one site entry.
type Table1Row struct {
	Site, Processor string
	Pert, Model     float64
}

// Table1 evaluates the TeraGrid site catalog against the reference ESSE
// job, reproducing the paper's Table 1.
func Table1() ([]Table1Row, string) {
	spec := sched.ESSEJob()
	var rows []Table1Row
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: pert/pemodel time-to-completion (s) on TeraGrid platforms\n")
	fmt.Fprintf(&b, "%-8s %-22s %9s %9s\n", "site", "processor type", "pert", "pemodel")
	for _, s := range remote.TeragridSites() {
		r := Table1Row{Site: s.Name, Processor: s.Processor, Pert: s.PertTime(spec), Model: s.ModelTime(spec)}
		rows = append(rows, r)
		fmt.Fprintf(&b, "%-8s %-22s %9.2f %9.2f\n", r.Site, r.Processor, r.Pert, r.Model)
	}
	return rows, b.String()
}

// ---------------------------------------------------------------------------
// Table 2

// Table2Row is one instance-type entry.
type Table2Row struct {
	Instance, Processor string
	Pert, Model         float64
	Cores               float64
}

// Table2 evaluates the EC2 instance catalog, reproducing Table 2.
func Table2() ([]Table2Row, string) {
	spec := sched.ESSEJob()
	var rows []Table2Row
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: pert/pemodel time-to-completion (s) on EC2 instance types\n")
	fmt.Fprintf(&b, "%-10s %-16s %9s %9s %6s\n", "site", "processor type", "pert", "pemodel", "cores")
	for _, it := range remote.EC2Instances() {
		r := Table2Row{Instance: it.Name, Processor: it.Processor,
			Pert: it.PertTime(spec), Model: it.ModelTime(spec), Cores: it.Cores}
		rows = append(rows, r)
		fmt.Fprintf(&b, "%-10s %-16s %9.2f %9.2f %6g\n", r.Instance, r.Processor, r.Pert, r.Model, r.Cores)
	}
	return rows, b.String()
}

// ---------------------------------------------------------------------------
// §5.2.1 local-cluster timings

// TimingsResult carries the four §5.2.1 measurements.
type TimingsResult struct {
	LocalSGE      *sched.Result // all-local I/O under SGE
	MixedSGE      *sched.Result // mixed NFS I/O under SGE
	LocalCondor   *sched.Result // all-local I/O under Condor
	Acoustics     *sched.Result // the 6000-job acoustics ensemble
	Members, Jobs int
}

// LocalTimings runs the calibrated cluster DES for the paper's 600-member
// ensemble on ~210 cores under the SGE/Condor and local/NFS variants,
// plus the 6000-job acoustics follow-up.
func LocalTimings(members, acousticJobs, cores int, seed uint64) (*TimingsResult, string) {
	c := cluster.MITAvailable(cores)
	base := sched.DefaultConfig()
	base.Seed = seed

	localSGE := base
	mixedSGE := base
	mixedSGE.IOMode = sched.MixedNFS
	localCondor := base
	localCondor.Policy = sched.Condor
	acoustic := base
	acoustic.IOMode = sched.MixedNFS
	acoustic.PrestageMB = 0

	res := &TimingsResult{
		LocalSGE:    sched.Simulate(c, members, sched.ESSEJob(), localSGE),
		MixedSGE:    sched.Simulate(c, members, sched.ESSEJob(), mixedSGE),
		LocalCondor: sched.Simulate(c, members, sched.ESSEJob(), localCondor),
		Acoustics:   sched.Simulate(c, acousticJobs, sched.AcousticJob(), acoustic),
		Members:     members,
		Jobs:        acousticJobs,
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Local-cluster timings (%d ESSE members, %d cores):\n", members, cores)
	fmt.Fprintf(&b, "  %-28s %8.1f min (pert CPU util %3.0f%%)\n",
		"SGE, all-local I/O:", res.LocalSGE.Makespan/60, res.LocalSGE.PertCPUUtilization*100)
	fmt.Fprintf(&b, "  %-28s %8.1f min (pert CPU util %3.0f%%)\n",
		"SGE, mixed NFS I/O:", res.MixedSGE.Makespan/60, res.MixedSGE.PertCPUUtilization*100)
	fmt.Fprintf(&b, "  %-28s %8.1f min (+%0.0f%% vs SGE)\n",
		"Condor, all-local I/O:", res.LocalCondor.Makespan/60,
		(res.LocalCondor.Makespan/res.LocalSGE.Makespan-1)*100)
	fmt.Fprintf(&b, "  %-28s %8.1f min (%d jobs, ~3 min each)\n",
		"Acoustics ensemble:", res.Acoustics.Makespan/60, acousticJobs)
	fmt.Fprintf(&b, "  paper: ~77 min all-local, ~86 min mixed, Condor 10-20%% slower,\n")
	fmt.Fprintf(&b, "         pert CPU utilization 20%% -> 100%% with prestaging\n")
	return res, b.String()
}

// ---------------------------------------------------------------------------
// §5.4.2 EC2 cost example

// CostExample reproduces the worked EC2 pricing example.
func CostExample() (remote.CostBreakdown, string) {
	b := remote.PaperCostExample()
	cm := remote.DefaultCostModel()
	it, _ := remote.FindInstance("c1.xlarge")
	reserved := cm.Cost(1.5, 10.56, 2, 20, it, true)
	var s strings.Builder
	fmt.Fprintf(&s, "EC2 cost example (1.5 GB in, 960 members x 11 MB out, 2 h x 20 c1.xlarge):\n")
	fmt.Fprintf(&s, "  transfer in : $%6.2f\n", b.TransferInUSD)
	fmt.Fprintf(&s, "  transfer out: $%6.2f\n", b.TransferOutUSD)
	fmt.Fprintf(&s, "  compute     : $%6.2f (%.0f billed instance-hours)\n", b.ComputeUSD, b.BilledHours)
	fmt.Fprintf(&s, "  TOTAL       : $%6.2f   (paper: $33.95)\n", b.TotalUSD)
	fmt.Fprintf(&s, "  with reserved instances: $%6.2f total ($%.2f compute)\n",
		reserved.TotalUSD, reserved.ComputeUSD)
	return b, s.String()
}

// ---------------------------------------------------------------------------
// Fig. 1 — the three forecasting timelines

// Fig1Timelines runs a small real-time twin experiment and renders the
// observation/forecaster/simulation timelines of its cycles.
func Fig1Timelines(cfg realtime.Config) ([]*realtime.CycleResult, string, error) {
	sys, err := realtime.NewSystem(cfg)
	if err != nil {
		return nil, "", err
	}
	cycles, err := sys.Run(context.Background())
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 1: forecasting timelines (%d cycles)\n", cfg.Cycles)
	b.WriteString(realtime.RenderTimelines(cycles, 64))
	return cycles, b.String(), nil
}

// ---------------------------------------------------------------------------
// Fig. 2 — one full ESSE cycle

// Fig2Result summarizes one ESSE uncertainty-prediction + assimilation
// cycle.
type Fig2Result struct {
	Cycle *realtime.CycleResult
	Rank  int
}

// Fig2ESSECycle executes the Fig. 2 pipeline once on the ocean model.
func Fig2ESSECycle(cfg realtime.Config) (*Fig2Result, string, error) {
	cfg.Cycles = 1
	sys, err := realtime.NewSystem(cfg)
	if err != nil {
		return nil, "", err
	}
	cr, err := sys.RunCycle(context.Background())
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 2: one ESSE cycle (perturb -> ensemble -> SVD -> converge -> assimilate)\n")
	fmt.Fprintf(&b, "  members used      : %d (failed %d, cancelled %d)\n",
		cr.Ensemble.MembersUsed, cr.Ensemble.MembersFailed, cr.Ensemble.MembersCancelled)
	fmt.Fprintf(&b, "  SVD rounds        : %d\n", cr.Ensemble.SVDRounds)
	fmt.Fprintf(&b, "  converged         : %v (rho = %.4f)\n", cr.Ensemble.Converged, cr.Ensemble.Rho)
	fmt.Fprintf(&b, "  subspace rank     : %d\n", cr.Ensemble.Subspace.Rank())
	fmt.Fprintf(&b, "  T RMSE forecast   : %.4f degC\n", cr.RMSEForecastT)
	fmt.Fprintf(&b, "  T RMSE analysis   : %.4f degC\n", cr.RMSEAnalysisT)
	fmt.Fprintf(&b, "  innovation/residual: %.3f -> %.3f\n", cr.InnovationNorm, cr.ResidualNorm)
	return &Fig2Result{Cycle: cr, Rank: cr.Ensemble.Subspace.Rank()}, b.String(), nil
}

// ---------------------------------------------------------------------------
// Figs. 3 & 4 — serial vs parallel workflow

// Fig34Result compares the serial and parallel runs of one workload.
type Fig34Result struct {
	Serial, Parallel *workflow.Result
	Speedup          float64
	SubspaceAgree    float64 // similarity coefficient between the results
}

// Fig3Fig4Comparison runs the identical ensemble workload through the
// Fig. 3 serial cadence and the Fig. 4 MTC pool and compares wall-clock
// and results. The member runner sleeps `memberDelay` to emulate the
// forecast cost so the exposed parallelism is measurable.
func Fig3Fig4Comparison(members, workers int, memberDelay time.Duration, stateDim int, seed uint64) (*Fig34Result, string, error) {
	truth := toySubspace(seed, stateDim, 3)
	cfg := workflow.DefaultConfig()
	cfg.InitialSize = members
	cfg.MaxSize = members
	cfg.Workers = workers
	cfg.SVDBatch = members / 4
	if cfg.SVDBatch < 1 {
		cfg.SVDBatch = 1
	}
	cfg.Criterion = core.ConvergenceCriterion{MinSimilarity: 2} // fixed workload
	runner := delayedToyRunner(truth, seed+1, memberDelay)
	central := make([]float64, stateDim)

	// Each run records its member spans; overlapping spans are the
	// signature of distributed rather than serial execution.
	cfg.Telemetry = telemetry.New()
	ser, err := workflow.RunSerial(context.Background(), cfg, central, runner)
	if err != nil {
		return nil, "", err
	}
	serOverlap := workflow.MembersOverlap(cfg.Telemetry.Tracer().ChromeEvents())
	cfg.Telemetry = telemetry.New()
	par, err := workflow.RunParallel(context.Background(), cfg, central, runner)
	if err != nil {
		return nil, "", err
	}
	parOverlap := workflow.MembersOverlap(cfg.Telemetry.Tracer().ChromeEvents())
	res := &Fig34Result{
		Serial:        ser,
		Parallel:      par,
		Speedup:       float64(ser.Elapsed) / float64(par.Elapsed),
		SubspaceAgree: core.SimilarityCoefficient(par.Subspace, ser.Subspace),
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figs 3/4: serial vs parallel (MTC) ESSE, %d members, %d workers\n", members, workers)
	fmt.Fprintf(&b, "  serial (Fig 3)  : %8.1f ms, overlap=%v\n",
		float64(ser.Elapsed.Microseconds())/1000, serOverlap)
	fmt.Fprintf(&b, "  parallel (Fig 4): %8.1f ms, overlap=%v\n",
		float64(par.Elapsed.Microseconds())/1000, parOverlap)
	fmt.Fprintf(&b, "  speedup         : %.2fx (workers=%d)\n", res.Speedup, workers)
	fmt.Fprintf(&b, "  subspace match  : rho = %.6f (identical member set)\n", res.SubspaceAgree)
	return res, b.String(), nil
}

// ---------------------------------------------------------------------------
// Figs. 5 & 6 — uncertainty forecast maps

// Fig56Result carries the two uncertainty fields.
type Fig56Result struct {
	SST     []float64 // surface temperature std-dev (Fig. 5)
	Deep    []float64 // ~30 m temperature std-dev (Fig. 6)
	NX, NY  int
	Cycles  []*realtime.CycleResult
	DeepLvl int
}

// Fig5Fig6Uncertainty runs the AOSN-II-style twin experiment and extracts
// the SST and subsurface temperature uncertainty maps.
func Fig5Fig6Uncertainty(cfg realtime.Config) (*Fig56Result, string, error) {
	sys, err := realtime.NewSystem(cfg)
	if err != nil {
		return nil, "", err
	}
	cycles, err := sys.Run(context.Background())
	if err != nil {
		return nil, "", err
	}
	sst, err := sys.UncertaintyField("T", 0)
	if err != nil {
		return nil, "", err
	}
	lvl := sys.LevelNearestDepth(30)
	deep, err := sys.UncertaintyField("T", lvl)
	if err != nil {
		return nil, "", err
	}
	res := &Fig56Result{SST: sst, Deep: deep, NX: cfg.NX, NY: cfg.NY, Cycles: cycles, DeepLvl: lvl}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 5: ESSE uncertainty forecast for sea-surface temperature (degC std-dev)\n")
	b.WriteString(metrics.RenderASCII(sst, cfg.NX, cfg.NY))
	fmt.Fprintf(&b, "\nFig 6: ESSE uncertainty forecast for ~30 m temperature (degC std-dev, level %d)\n", lvl)
	b.WriteString(metrics.RenderASCII(deep, cfg.NX, cfg.NY))
	fmt.Fprintf(&b, "\nforecast/analysis T RMSE by cycle:\n")
	for _, c := range cycles {
		fmt.Fprintf(&b, "  cycle %d: %.4f -> %.4f (members %d, rho %.3f)\n",
			c.Cycle, c.RMSEForecastT, c.RMSEAnalysisT, c.Ensemble.MembersUsed, c.Ensemble.Rho)
	}
	return res, b.String(), nil
}
