// Acoustic section: transferring ESSE ocean uncertainty to acoustics.
//
// "Sound-propagation studies often focus on vertical sections. ESSE
// ocean physics uncertainties are transferred to acoustical
// uncertainties along such a section." This example runs a small ocean
// ensemble, extracts a sound-speed section per member, computes the
// broadband transmission-loss field for each realization, maps the TL
// mean and standard deviation, and assimilates TL data (coupled, §2.2).
//
//	go run ./examples/acoustic-section [-members 8] [-freq 1.0]
package main

import (
	"flag"
	"fmt"
	"log"

	"esse/internal/acoustics"
	"esse/internal/core"
	"esse/internal/grid"
	"esse/internal/metrics"
	"esse/internal/ocean"
	"esse/internal/rng"
)

func main() {
	members := flag.Int("members", 8, "ocean ensemble size")
	freq := flag.Float64("freq", 1.0, "source frequency (kHz)")
	srcDepth := flag.Float64("source-depth", 30, "source depth (m)")
	seed := flag.Uint64("seed", 7, "random seed")
	flag.Parse()

	g := grid.MontereyBay(16, 16, 5)
	master := rng.New(*seed)
	tlCfg := acoustics.DefaultTLConfig()
	tlCfg.FreqKHz = *freq
	tlCfg.SourceDepth = *srcDepth
	scaler, err := core.NewScaler(grid.NewLayout(g, ocean.Vars(g)), core.DefaultVarScales())
	if err != nil {
		log.Fatal(err)
	}

	// Ocean ensemble: jittered climatology + stochastic forcing, like
	// the ESSE perturbation step.
	fmt.Printf("running %d ocean members and extracting a zonal section...\n", *members)
	var sections []*acoustics.Section
	var oceanZ [][]float64
	var tls []*acoustics.TLField
	for m := 0; m < *members; m++ {
		st := master.Split(uint64(m))
		cfg := ocean.DefaultConfig(g)
		cfg.Climo = cfg.Climo.Jitter(st)
		model := ocean.New(cfg, st.Split(1))
		model.Run(40)
		state := model.State(nil)
		sec, err := acoustics.ExtractSection(model.Layout, state, 1, g.NY/2, g.NX-2, g.NY/2, 2*g.NX)
		if err != nil {
			log.Fatal(err)
		}
		sections = append(sections, sec)
		tl, err := acoustics.ComputeTL(sec, tlCfg)
		if err != nil {
			log.Fatal(err)
		}
		oceanZ = append(oceanZ, scaler.ToScaled(nil, state))
		tls = append(tls, tl)
	}

	stats, err := acoustics.EnsembleTL(sections, tlCfg)
	if err != nil {
		log.Fatal(err)
	}

	nr, nz := stats.Mean.TL.Rows, stats.Mean.TL.Cols
	fmt.Printf("\nsection: %.0f km range, %.0f m deep; source %.0f m @ %.1f kHz\n",
		sections[0].Ranges[len(sections[0].Ranges)-1]/1000,
		sections[0].Depths[len(sections[0].Depths)-1], *srcDepth, *freq)

	// The TL field is range (rows) × depth (cols); transpose for display
	// so depth increases downward.
	meanT := stats.Mean.TL.T()
	stdT := stats.Std.TL.T()
	flip := func(d []float64, nx, ny int) []float64 {
		// RenderASCII prints row ny-1 first; flip so depth 0 is on top.
		out := make([]float64, len(d))
		for j := 0; j < ny; j++ {
			copy(out[(ny-1-j)*nx:(ny-j)*nx], d[j*nx:(j+1)*nx])
		}
		return out
	}
	fmt.Println("\nmean transmission loss (dB; darker = quieter):")
	fmt.Print(metrics.RenderASCII(flip(meanT.Data, nr, nz), nr, nz))
	fmt.Println("\nTL uncertainty from the ocean ensemble (dB std-dev):")
	fmt.Print(metrics.RenderASCII(flip(stdT.Data, nr, nz), nr, nz))

	st := metrics.Stats(stats.Std.TL.Data)
	fmt.Printf("\nTL std-dev: max %.1f dB, mean %.1f dB — ocean uncertainty has become\n", st.Max, st.Mean)
	fmt.Println("acoustical uncertainty, ready for coupled physical-acoustical assimilation.")

	// §2.2: stack each member's scaled ocean state on its TL field; the
	// coupled subspace carries ocean–acoustic cross-covariances, so TL
	// receivers 2 dB off the ensemble mean also update the ocean fields.
	ens, err := acoustics.NewCoupledEnsemble(oceanZ, tls, 5, 0)
	if err != nil {
		log.Fatal(err)
	}
	receivers := []acoustics.TLObservation{
		{RI: nr / 4, ZI: nz / 3, Stddev: 1}, {RI: nr / 2, ZI: nz / 2, Stddev: 1}, {RI: 3 * nr / 4, ZI: nz / 4, Stddev: 1},
	}
	net, err := ens.NewTLNetwork(receivers)
	if err != nil {
		log.Fatal(err)
	}
	meanTL := ens.TLPart(ens.Mean)
	y := make([]float64, len(receivers))
	for i, o := range receivers {
		y[i] = meanTL[o.RI*ens.TLCols+o.ZI] + 2
	}
	prior := ens.Subspace.TotalVariance()
	an, err := ens.AssimilateTL(net, y)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncoupled assimilation of %d TL receivers, each 2 dB above the ensemble mean:\n", len(receivers))
	fmt.Printf("  innovation norm %.3f -> residual norm %.3f; coupled total variance %.4g -> %.4g\n", an.InnovationNorm, an.ResidualNorm, prior, ens.Subspace.TotalVariance())
}
