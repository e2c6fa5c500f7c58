// Command acoustic-climate computes the "acoustic climate" of a
// simulated coastal region: transmission loss for every combination of
// vertical slice, source depth and frequency, from an ensemble of ocean
// states — the very large ensemble of short acoustics tasks that
// followed the ESSE run in the paper (6000+ jobs of ~3 minutes).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"esse/internal/acoustics"
	"esse/internal/grid"
	"esse/internal/metrics"
	"esse/internal/ocean"
	"esse/internal/rng"
)

func main() {
	var (
		nx      = flag.Int("nx", 16, "grid points east")
		ny      = flag.Int("ny", 16, "grid points north")
		nz      = flag.Int("nz", 5, "vertical levels")
		members = flag.Int("members", 4, "ocean ensemble members")
		slices  = flag.Int("slices", 3, "vertical slices per member")
		depths  = flag.String("depths", "10,30,80", "source depths (m, comma list)")
		freqs   = flag.String("freqs", "0.5,1,2", "frequencies (kHz, comma list)")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size")
		seed    = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	srcDepths, err := parseFloats(*depths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acoustic-climate:", err)
		os.Exit(2)
	}
	freqsKHz, err := parseFloats(*freqs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acoustic-climate:", err)
		os.Exit(2)
	}

	g := grid.MontereyBay(*nx, *ny, *nz)
	master := rng.New(*seed)
	var sections []*acoustics.Section
	for m := 0; m < *members; m++ {
		model := ocean.New(ocean.DefaultConfig(g), master.Split(uint64(m)))
		model.Run(30)
		state := model.State(nil)
		for sl := 0; sl < *slices; sl++ {
			j := (sl + 1) * g.NY / (*slices + 1)
			sec, err := acoustics.ExtractSection(model.Layout, state, 1, j, g.NX-2, j, 2*g.NX)
			if err != nil {
				fmt.Fprintln(os.Stderr, "acoustic-climate:", err)
				os.Exit(1)
			}
			sections = append(sections, sec)
		}
	}

	spec := acoustics.ClimateSpec{
		Sections:     sections,
		SourceDepths: srcDepths,
		FreqsKHz:     freqsKHz,
		Base:         acoustics.DefaultTLConfig(),
		Workers:      *workers,
	}
	fmt.Printf("acoustic climate: %d sections x %d source depths x %d freqs = %d tasks on %d workers\n",
		len(sections), len(srcDepths), len(freqsKHz), spec.TaskCount(), *workers)

	res, err := acoustics.ComputeClimate(context.Background(), spec, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acoustic-climate:", err)
		os.Exit(1)
	}
	if len(res.Tasks) == 0 {
		fmt.Fprintf(os.Stderr, "acoustic-climate: no task completed (%d failed, %d cancelled)\n", res.Failed, res.Cancelled)
		os.Exit(1)
	}
	var meanTLs []float64
	var totalTask float64
	for _, t := range res.Tasks {
		meanTLs = append(meanTLs, t.MeanTL)
		totalTask += t.Elapsed.Seconds()
	}
	st := metrics.Stats(meanTLs)
	fmt.Printf("completed %d tasks (%d failed, %d cancelled) in %s wall, %.2f s task-seconds\n",
		len(res.Tasks), res.Failed, res.Cancelled, res.Elapsed.Round(1e6), totalTask)
	fmt.Printf("per-task mean TL: min %.1f dB, max %.1f dB, mean %.1f dB\n", st.Min, st.Max, st.Mean)
	if res.Elapsed.Seconds() > 0 {
		fmt.Printf("throughput: %.1f tasks/s (speedup vs serial ~%.1fx)\n",
			float64(len(res.Tasks))/res.Elapsed.Seconds(), totalTask/res.Elapsed.Seconds())
	}
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", s)
	}
	return out, nil
}
