// Command mtc-sim drives the discrete-event simulation of the ESSE
// many-task workload on the paper's MIT cluster: SGE vs Condor
// scheduling, prestaged-local vs mixed-NFS I/O, job arrays vs singleton
// submissions, and failure injection (Section 5.2).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"esse/internal/cluster"
	"esse/internal/sched"
	"esse/internal/telemetry"
)

func main() {
	var (
		jobs     = flag.Int("jobs", 600, "number of ensemble member jobs")
		cores    = flag.Int("cores", 210, "available cores")
		policy   = flag.String("policy", "sge", "scheduler policy: sge | condor")
		iomode   = flag.String("io", "local", "input I/O mode: local | nfs")
		workload = flag.String("workload", "esse", "job type: esse | acoustic")
		array    = flag.Bool("array", true, "submit as a job array")
		batch    = flag.Int("batch", 1, "pack this many members per scheduler job (section 5.3.4)")
		failure  = flag.Float64("failure", 0, "per-job failure probability")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		matrix   = flag.Bool("matrix", false, "run the full section 5.2.1 configuration matrix")
		telAddr  = flag.String("telemetry-addr", "", "serve /metrics, /events, /trace and /debug/pprof on this address (e.g. :9090)")
		telHold  = flag.Duration("telemetry-hold", 0, "keep the telemetry server up this long after the run (for scrapers)")
	)
	flag.Parse()

	// Diagnostics are structured stderr log lines; results stay on stdout.
	lg := telemetry.NewLogger(os.Stderr, slog.LevelInfo)
	if *cores < 1 {
		lg.Error("cores must be at least 1", "cores", *cores)
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel ctx so a held telemetry server drains
	// gracefully instead of dying mid-scrape.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var tel *telemetry.Telemetry
	if *telAddr != "" {
		tel = telemetry.New()
		// Seed-stable trace identity: reruns with the same -seed produce
		// the same TraceID on /trace, so digests are comparable.
		tel.Tracer().SetTraceID(telemetry.DeriveTraceID(*seed))
		go func() {
			if err := telemetry.Serve(ctx, *telAddr, tel.Handler()); err != nil {
				lg.Error("telemetry server failed", "addr", *telAddr, "err", err.Error())
			}
		}()
		fmt.Printf("telemetry: %s\n", telemetry.DisplayURL(*telAddr, "/metrics"))
	}

	c := cluster.MITAvailable(*cores)
	spec := sched.ESSEJob()
	if *workload == "acoustic" {
		spec = sched.AcousticJob()
	}

	if *matrix {
		runMatrix(c, *jobs, *seed)
		return
	}

	cfg := sched.DefaultConfig()
	cfg.Seed = *seed
	cfg.JobArray = *array
	cfg.FailureProb = *failure
	switch *policy {
	case "sge":
		cfg.Policy = sched.SGE
	case "condor":
		cfg.Policy = sched.Condor
	default:
		lg.Error("unknown policy", "policy", *policy)
		os.Exit(2)
	}
	switch *iomode {
	case "local":
		cfg.IOMode = sched.LocalPrestaged
	case "nfs":
		cfg.IOMode = sched.MixedNFS
	default:
		lg.Error("unknown io mode", "io", *iomode)
		os.Exit(2)
	}
	if *workload == "acoustic" {
		cfg.PrestageMB = 0
		cfg.IOMode = sched.MixedNFS
	}

	sp := tel.Span("mtc-sim", "simulate", -1, 0)
	res := sched.SimulateBatched(c, *jobs, spec, cfg, *batch)
	sp.End()
	fmt.Printf("workload=%s jobs=%d cores=%d policy=%v io=%v array=%v batch=%d\n",
		*workload, *jobs, *cores, cfg.Policy, cfg.IOMode, cfg.JobArray, *batch)
	printResult(res)

	if tel != nil {
		publishResult(tel, res)
		if *telHold > 0 {
			fmt.Printf("holding telemetry server for %v\n", *telHold)
			select {
			case <-time.After(*telHold):
			case <-ctx.Done():
			}
		}
	}
}

// publishResult exposes the simulation outcome as gauges so a scraper
// sees the run's headline numbers on /metrics.
func publishResult(tel *telemetry.Telemetry, res *sched.Result) {
	tel.Gauge("mtc_sim_makespan_seconds", "Simulated makespan of the workload.").Set(res.Makespan)
	tel.Gauge("mtc_sim_jobs", "Simulated jobs by final outcome.", "outcome", "completed").Set(float64(res.JobsCompleted))
	tel.Gauge("mtc_sim_jobs", "Simulated jobs by final outcome.", "outcome", "failed").Set(float64(res.JobsFailed))
	tel.Gauge("mtc_sim_pert_cpu_utilization", "Perturbation-phase CPU utilization (0..1).").Set(res.PertCPUUtilization)
}

func runMatrix(c *cluster.Cluster, jobs int, seed uint64) {
	fmt.Printf("Section 5.2.1 configuration matrix (%d jobs, %d cores):\n\n", jobs, c.TotalCores())
	fmt.Printf("%-8s %-10s %10s %10s %10s\n", "policy", "io", "makespan", "pert-util", "disp-delay")
	for _, pol := range []sched.Policy{sched.SGE, sched.Condor} {
		for _, io := range []sched.IOMode{sched.LocalPrestaged, sched.MixedNFS} {
			cfg := sched.DefaultConfig()
			cfg.Seed = seed
			cfg.Policy = pol
			cfg.IOMode = io
			res := sched.Simulate(c, jobs, sched.ESSEJob(), cfg)
			fmt.Printf("%-8v %-10v %8.1f m %9.0f%% %8.1f s\n",
				pol, io, res.Makespan/60, res.PertCPUUtilization*100, res.MeanDispatchDelay)
		}
	}
	fmt.Println("\npaper reference: ~77 min all-local, ~86 min mixed-NFS under SGE;")
	fmt.Println("Condor 10-20% slower; pert CPU utilization 20% -> 100% with prestaging.")
}

func printResult(res *sched.Result) {
	fmt.Printf("  makespan        : %.1f min (%.0f s)\n", res.Makespan/60, res.Makespan)
	fmt.Printf("  completed/failed: %d / %d\n", res.JobsCompleted, res.JobsFailed)
	fmt.Printf("  pert CPU util   : %.0f%%\n", res.PertCPUUtilization*100)
	fmt.Printf("  dispatch delay  : %.1f s mean\n", res.MeanDispatchDelay)
	fmt.Printf("  NFS traffic     : %.1f GB\n", res.NFSMBMoved/1000)
	fmt.Printf("  job residence   : mean %.1f s, max %.1f s\n", res.MeanJobSeconds, res.MaxJobSeconds)
}
