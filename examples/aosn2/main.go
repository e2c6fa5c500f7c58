// AOSN-II reanalysis: the paper's Section 6 experiment as a twin study.
//
// The Autonomous Ocean Sampling Network II exercise (Monterey Bay,
// Aug-Sep 2003) assimilated CTD, AUV, glider and satellite SST data with
// HOPS/ESSE in real time. This example repeats the computational pattern:
// several forecast/assimilation cycles over a Monterey-Bay-like domain
// with a multi-platform synthetic observation network, adaptive ensemble
// sizes, and the Fig. 5/6 uncertainty maps (written as PGM images).
//
//	go run ./examples/aosn2 [-cycles 4] [-out /tmp/aosn2]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"esse/internal/core"
	"esse/internal/metrics"
	"esse/internal/obs"
	"esse/internal/realtime"
)

func main() {
	cycles := flag.Int("cycles", 4, "forecast/assimilation cycles")
	outDir := flag.String("out", "", "directory for PGM uncertainty maps (optional)")
	smooth := flag.Bool("smooth", false, "also reanalyze each cycle's start state (ESSE smoother)")
	seed := flag.Uint64("seed", 2003, "random seed (AOSN-II vintage)")
	flag.Parse()

	cfg := realtime.DefaultConfig()
	cfg.NX, cfg.NY, cfg.NZ = 16, 16, 5
	cfg.Cycles = *cycles
	cfg.StepsPerCycle = 30
	cfg.Seed = *seed
	cfg.Ensemble.InitialSize = 16
	cfg.Ensemble.MaxSize = 64
	cfg.Ensemble.Workers = 8
	cfg.Ensemble.Criterion = core.ConvergenceCriterion{MinSimilarity: 0.92, MaxVarianceChange: 0.3}
	cfg.Smooth = *smooth

	sys, err := realtime.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("AOSN-II style reanalysis, Monterey Bay domain")
	fmt.Printf("grid %dx%dx%d (state dim %d)\n", cfg.NX, cfg.NY, cfg.NZ, sys.Layout.Dim())
	fmt.Print("observation platforms: ")
	counts := sys.Network.CountByPlatform()
	for _, p := range []obs.Platform{obs.SatelliteSST, obs.CTD, obs.AUV, obs.Glider} {
		fmt.Printf("%s=%d ", p, counts[p])
	}
	fmt.Printf("(total %d)\n\n", sys.Network.Len())

	fmt.Printf("%-6s %9s %9s %8s %9s %6s\n", "cycle", "rmseF(T)", "rmseA(T)", "members", "poolSizes", "rho")
	var results []*realtime.CycleResult
	for k := 0; k < cfg.Cycles; k++ {
		r, err := sys.RunCycle(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, r)
		fmt.Printf("%-6d %9.4f %9.4f %8d %9v %6.3f",
			r.Cycle, r.RMSEForecastT, r.RMSEAnalysisT,
			r.Ensemble.MembersUsed, r.Ensemble.PoolSizes, r.Ensemble.Rho)
		if *smooth {
			fmt.Printf("  smoother: start %.4f -> %.4f", r.RMSEStartT, r.RMSESmoothedStartT)
		}
		fmt.Println()
	}

	sst, err := sys.UncertaintyField("T", 0)
	if err != nil {
		log.Fatal(err)
	}
	lvl := sys.LevelNearestDepth(30)
	deep, err := sys.UncertaintyField("T", lvl)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nESSE uncertainty forecast, sea-surface temperature (Fig 5 analog):")
	fmt.Print(metrics.RenderASCII(sst, cfg.NX, cfg.NY))
	fmt.Printf("\nESSE uncertainty forecast, ~30 m temperature (Fig 6 analog, level %d):\n", lvl)
	fmt.Print(metrics.RenderASCII(deep, cfg.NX, cfg.NY))

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
		f5 := filepath.Join(*outDir, "fig5_sst_std.pgm")
		f6 := filepath.Join(*outDir, "fig6_30m_std.pgm")
		if err := os.WriteFile(f5, metrics.RenderPGM(sst, cfg.NX, cfg.NY), 0o644); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(f6, metrics.RenderPGM(deep, cfg.NX, cfg.NY), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s and %s\n", f5, f6)
	}

	fmt.Println("\nforecasting timelines (Fig 1 analog):")
	fmt.Print(realtime.RenderTimelines(results, 60))
}
