// Command esse-forecast runs the full real-time ESSE forecasting system
// (the parallel MTC implementation of the paper's Fig. 4) as a twin
// experiment: forecast cycles with ensemble uncertainty prediction,
// adaptive ensemble sizing, and assimilation of synthetic AOSN-II-style
// observations, printing skill diagnostics and the final uncertainty
// maps.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"esse/internal/core"
	"esse/internal/jobdir"
	"esse/internal/metrics"
	"esse/internal/monitor"
	"esse/internal/obs"
	"esse/internal/realtime"
	"esse/internal/telemetry"
	"esse/internal/workflow"
)

func main() {
	var (
		nx       = flag.Int("nx", 14, "grid points east")
		ny       = flag.Int("ny", 14, "grid points north")
		nz       = flag.Int("nz", 4, "vertical levels")
		cycles   = flag.Int("cycles", 3, "forecast/assimilation cycles")
		steps    = flag.Int("steps", 25, "model steps per cycle")
		initial  = flag.Int("ensemble", 16, "initial ensemble size N")
		maxSize  = flag.Int("max-ensemble", 48, "maximum ensemble size Nmax")
		workers  = flag.Int("workers", 8, "concurrent forecast tasks")
		rho      = flag.Float64("rho", 0.90, "subspace similarity convergence threshold")
		seed     = flag.Uint64("seed", 1, "master random seed")
		showMaps = flag.Bool("maps", true, "print Fig 5/6 style uncertainty maps")
		pgmDir   = flag.String("pgm", "", "directory to write PGM uncertainty images (optional)")
		telAddr  = flag.String("telemetry-addr", "", "serve /status, /metrics, /events, /trace and /debug/pprof on this address (e.g. :9090)")
		traceOut = flag.String("trace-out", "", "write a Chrome trace-event JSON (chrome://tracing) of the run to this file")
		trackDir = flag.String("trackdir", "", "jobdir tracking directory: members persist and restarts skip completed work")
		adaptive = flag.Int("adaptive", 0, "adaptively planned CTD casts per cycle")
		smooth   = flag.Bool("smooth", false, "reanalyze each cycle's start state (ESSE smoother)")
		det      = flag.Bool("deterministic", false, "DO-style deterministic subspace propagation instead of the ensemble")
		verbose  = flag.Bool("v", false, "log debug-level diagnostics")
	)
	flag.Parse()

	// Diagnostics go to stderr as structured log lines; results stay on
	// stdout.
	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	lg := telemetry.NewLogger(os.Stderr, level)

	// SIGINT/SIGTERM cancel ctx: the forecast loop stops between model
	// steps and the telemetry server drains gracefully.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := realtime.DefaultConfig()
	cfg.NX, cfg.NY, cfg.NZ = *nx, *ny, *nz
	cfg.Cycles = *cycles
	cfg.StepsPerCycle = *steps
	cfg.Seed = *seed
	cfg.Ensemble.InitialSize = *initial
	cfg.Ensemble.MaxSize = *maxSize
	cfg.Ensemble.Workers = *workers
	cfg.Ensemble.Criterion = core.ConvergenceCriterion{MinSimilarity: *rho, MaxVarianceChange: 0.25}
	cfg.AdaptiveCasts = *adaptive
	cfg.Smooth = *smooth
	cfg.Deterministic = *det

	var tel *telemetry.Telemetry
	if *telAddr != "" || *traceOut != "" {
		tel = telemetry.New()
		cfg.Telemetry = tel
		// The run's trace identity derives from the seed: restarting
		// with the same -seed yields the same TraceID in the exported
		// trace, in wire payloads, and across HTTP hops.
		tel.Tracer().SetTraceID(telemetry.DeriveTraceID(*seed))
		lg.Info("tracing enabled", "trace_id", tel.Tracer().TraceID().String(), "seed", *seed)
	}
	if *telAddr != "" {
		// One server: live ensemble progress beside the telemetry.
		mon := monitor.New()
		cfg.Ensemble.OnProgress = mon.Callback()
		mux := http.NewServeMux()
		tel.Mount(mux)
		mon.Mount(mux)
		go func() {
			if err := telemetry.Serve(ctx, *telAddr, mux); err != nil {
				lg.Error("telemetry server failed", "addr", *telAddr, "err", err.Error())
			}
		}()
		fmt.Printf("telemetry: %s\n", telemetry.DisplayURL(*telAddr, "/metrics"))
		fmt.Printf("live progress: %s\n", telemetry.DisplayURL(*telAddr, "/status"))
	}
	if *trackDir != "" {
		cfg.WrapRunner = func(cycle int, r workflow.MemberRunner) workflow.MemberRunner {
			tr, err := jobdir.Open(fmt.Sprintf("%s/cycle-%d", *trackDir, cycle))
			if err != nil {
				lg.Error("opening tracking directory failed", "dir", *trackDir, "cycle", cycle, "err", err.Error())
				os.Exit(1)
			}
			tr.Instrument(tel)
			return jobdir.ResumableRunner(tr, r)
		}
	}

	sys, err := realtime.NewSystem(cfg)
	if err != nil {
		lg.Error("building system failed", "err", err.Error())
		os.Exit(1)
	}
	counts := sys.Network.CountByPlatform()
	fmt.Printf("ESSE real-time forecast: %dx%dx%d grid (state dim %d), %d obs/batch (SST=%d CTD=%d AUV=%d glider=%d)\n",
		*nx, *ny, *nz, sys.Layout.Dim(), sys.Network.Len(),
		counts[obs.SatelliteSST], counts[obs.CTD], counts[obs.AUV], counts[obs.Glider])
	fmt.Printf("%-6s %9s %9s %8s %7s %6s %5s %8s\n",
		"cycle", "rmseF(T)", "rmseA(T)", "members", "SVDs", "rho", "conv", "elapsed")
	var results []*realtime.CycleResult
	for k := 0; k < cfg.Cycles; k++ {
		r, err := sys.RunCycle(ctx)
		if err != nil {
			lg.Error("cycle failed", "cycle", k, "err", err.Error())
			os.Exit(1)
		}
		results = append(results, r)
		lg.Debug("cycle complete", "cycle", r.Cycle, "members", r.Ensemble.MembersUsed,
			"svd_rounds", r.Ensemble.SVDRounds, "converged", r.Ensemble.Converged,
			"elapsed", r.Ensemble.Elapsed)
		fmt.Printf("%-6d %9.4f %9.4f %8d %7d %6.3f %5v %8s",
			r.Cycle, r.RMSEForecastT, r.RMSEAnalysisT, r.Ensemble.MembersUsed,
			r.Ensemble.SVDRounds, r.Ensemble.Rho, r.Ensemble.Converged,
			r.Ensemble.Elapsed.Round(1e6))
		if *smooth {
			fmt.Printf("  smoother: start %.4f -> %.4f", r.RMSEStartT, r.RMSESmoothedStartT)
		}
		fmt.Println()
	}

	if *showMaps {
		sst, err := sys.UncertaintyField("T", 0)
		if err == nil {
			fmt.Println("\nSST uncertainty (degC std-dev):")
			fmt.Print(metrics.RenderASCII(sst, *nx, *ny))
		}
		deep, err := sys.UncertaintyField("T", sys.LevelNearestDepth(30))
		if err == nil {
			fmt.Println("\n~30 m temperature uncertainty (degC std-dev):")
			fmt.Print(metrics.RenderASCII(deep, *nx, *ny))
		}
		if *pgmDir != "" {
			err := os.MkdirAll(*pgmDir, 0o755)
			if err == nil {
				err = os.WriteFile(*pgmDir+"/fig5_sst_std.pgm", metrics.RenderPGM(sst, *nx, *ny), 0o644)
			}
			if err == nil {
				err = os.WriteFile(*pgmDir+"/fig6_30m_std.pgm", metrics.RenderPGM(deep, *nx, *ny), 0o644)
			}
			if err != nil {
				lg.Error("writing PGM images failed", "dir", *pgmDir, "err", err.Error())
				os.Exit(1)
			}
			fmt.Printf("\nwrote %s/fig5_sst_std.pgm and fig6_30m_std.pgm\n", *pgmDir)
		}
	}
	fmt.Println("\nTimelines (Fig 1):")
	fmt.Print(realtime.RenderTimelines(results, 64))

	if *traceOut != "" {
		// Wall-clock spans plus the paper-time rows of the cycles (one
		// trace second per ocean second) in one Chrome trace file.
		events := tel.Tracer().ChromeEvents()
		events = append(events, realtime.TimelineEvents(results, time.Second)...)
		var buf bytes.Buffer
		err := telemetry.WriteChromeTrace(&buf, events)
		if err == nil {
			err = os.WriteFile(*traceOut, buf.Bytes(), 0o644)
		}
		if err != nil {
			lg.Error("writing trace failed", "path", *traceOut, "err", err.Error())
			os.Exit(1)
		}
		fmt.Printf("\nwrote Chrome trace (%d events) to %s — load in chrome://tracing\n", len(events), *traceOut)
	}
}
