//go:build ignore

// repin measures the ensemble statistics that DESIGN.md's re-pin rule
// compares across a commit that changes bits: twin runs of
// realtime.DefaultConfig at seeds 1..N and, per cycle, the SVD rounds,
// the members used, the final ρ, the forecast and analysis temperature
// RMSE and their ratio (the skill ratio); after the last cycle, the
// largest and the mean SST standard deviation of the posterior subspace
// (the spread field of Fig. 5); and, on sections cut through the
// truth at the end of the run, the acoustic climate's mean TL over its
// tasks and the mean TL standard deviation of EnsembleTL across those
// sections; and, from the truth's final state, the SST and eta spread of
// 16 members that differ only in their stochastic forcing, after 150
// steps (the rows that see a change of the model-error forcing, which the
// twin statistics average away). Run it at the root of a checkout of each
// side (copy the file into the older one), then compare the two outputs:
//
//	go run scripts/repin.go -seeds 30 > parent.json   # parent checkout
//	go run scripts/repin.go -seeds 30 > change.json   # this checkout
//	go run scripts/repin.go -compare parent.json change.json
//
// The comparison prints a Markdown table: per statistic, the mean ±
// standard error over seeds on each side (a per-cycle statistic is the
// seed's mean over its cycles) and the mean ± standard error of the
// paired difference, change − parent.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"esse/internal/acoustics"
	"esse/internal/ocean"
	"esse/internal/realtime"
	"esse/internal/rng"
)

var stats = []string{"rounds", "members", "rho", "rmse_forecast", "rmse_analysis", "skill_ratio", "sst_std_max", "sst_std_mean", "tl_mean", "tl_std_mean", "forced_sst_spread", "forced_eta_spread"}

func main() {
	log.SetFlags(0)
	seeds := flag.Int("seeds", 30, "number of seeds, 1..N")
	compare := flag.Bool("compare", false, "compare two outputs: -compare parent.json change.json")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("usage: repin -compare parent.json change.json")
		}
		printTable(load(flag.Arg(0)), load(flag.Arg(1)))
		return
	}
	enc := json.NewEncoder(os.Stdout)
	out := make([]map[string]float64, 0, *seeds)
	for seed := 1; seed <= *seeds; seed++ {
		cfg := realtime.DefaultConfig()
		cfg.Seed = uint64(seed)
		sys, err := realtime.NewSystem(cfg)
		if err != nil {
			log.Fatal(err)
		}
		results, err := sys.Run(context.Background())
		if err != nil {
			log.Fatalf("seed %d: %v", seed, err)
		}
		row := map[string]float64{}
		for _, r := range results {
			e := r.Ensemble
			for i, v := range []float64{float64(e.SVDRounds), float64(e.MembersUsed), e.Rho,
				r.RMSEForecastT, r.RMSEAnalysisT, r.RMSEAnalysisT / r.RMSEForecastT} {
				row[stats[i]] += v / float64(len(results))
			}
		}
		sst, err := sys.UncertaintyField("T", 0)
		if err != nil {
			log.Fatal(err)
		}
		for _, v := range sst {
			row["sst_std_max"] = math.Max(row["sst_std_max"], v)
			row["sst_std_mean"] += v / float64(len(sst))
		}
		if err := acousticStats(row, sys); err != nil {
			log.Fatalf("seed %d: %v", seed, err)
		}
		forcedSpread(row, sys, uint64(seed))
		out = append(out, row)
	}
	if err := enc.Encode(out); err != nil {
		log.Fatal(err)
	}
}

// acousticStats runs cmd/acoustic-climate's default task product on
// three zonal sections of the truth and adds its mean TL over tasks, and
// the mean over cells of EnsembleTL's standard deviation across the
// sections, to row.
func acousticStats(row map[string]float64, sys *realtime.System) error {
	g, truth := sys.Layout.G, sys.TruthState()
	var sections []*acoustics.Section
	for sl := 1; sl <= 3; sl++ {
		j := sl * g.NY / 4
		sec, err := acoustics.ExtractSection(sys.Layout, truth, 1, j, g.NX-2, j, 2*g.NX)
		if err != nil {
			return err
		}
		sections = append(sections, sec)
	}
	spec := acoustics.ClimateSpec{
		Sections:     sections,
		SourceDepths: []float64{10, 30, 80},
		FreqsKHz:     []float64{0.5, 1, 2},
		Base:         acoustics.DefaultTLConfig(),
		Workers:      1,
	}
	res, err := acoustics.ComputeClimate(context.Background(), spec, nil)
	if err != nil {
		return err
	}
	if len(res.Tasks) != spec.TaskCount() {
		return fmt.Errorf("climate: %d of %d tasks done", len(res.Tasks), spec.TaskCount())
	}
	for _, task := range res.Tasks {
		row["tl_mean"] += task.MeanTL / float64(len(res.Tasks))
	}
	ens, err := acoustics.EnsembleTL(sections, acoustics.DefaultTLConfig())
	if err != nil {
		return err
	}
	for _, v := range ens.Std.TL.Data {
		row["tl_std_mean"] += v / float64(len(ens.Std.TL.Data))
	}
	return nil
}

// forcedSpread runs 16 members from the truth's final state, on noise
// streams split from seed, for 150 steps, and sets the mean over cells of
// their SST and eta standard deviation in row.
func forcedSpread(row map[string]float64, sys *realtime.System, seed uint64) {
	const members, steps = 16, 150
	l := sys.Layout
	cfg, init, n2 := ocean.DefaultConfig(l.G), sys.TruthState(), l.G.N2()
	vars := []struct{ stat, name string }{{"forced_sst_spread", "T"}, {"forced_eta_spread", "eta"}}
	sum, sum2 := make([]float64, 2*n2), make([]float64, 2*n2)
	noise := rng.New(seed)
	for m := 0; m < members; m++ {
		model := ocean.NewFromState(cfg, noise.Split(uint64(m)), init)
		model.Run(steps)
		st := model.State(nil)
		for f, v := range vars {
			for id, x := range l.SliceByName(st, v.name)[:n2] {
				sum[f*n2+id] += x
				sum2[f*n2+id] += x * x
			}
		}
	}
	for f, v := range vars {
		for id := f * n2; id < (f+1)*n2; id++ {
			mean := sum[id] / members
			sd := math.Sqrt(math.Max(sum2[id]/members-mean*mean, 0) * members / (members - 1))
			row[v.stat] += sd / float64(n2)
		}
	}
}

func load(path string) []map[string]float64 {
	b, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	var rows []map[string]float64
	if err := json.Unmarshal(b, &rows); err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return rows
}

// meanSE returns the mean of xs and its standard error.
func meanSE(xs []float64) (float64, float64) {
	n := float64(len(xs))
	mean := 0.0
	for _, x := range xs {
		mean += x / n
	}
	ss := 0.0
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / (n - 1) / n)
}

func printTable(parent, change []map[string]float64) {
	if len(parent) != len(change) || len(parent) < 2 {
		log.Fatalf("%d seeds against %d: need the same seeds, at least two", len(parent), len(change))
	}
	fmt.Printf("| statistic | parent | change | change − parent |\n|---|---|---|---|\n")
	for _, s := range stats {
		var p, c, d []float64
		for i := range parent {
			p, c = append(p, parent[i][s]), append(c, change[i][s])
			d = append(d, change[i][s]-parent[i][s])
		}
		pm, pe := meanSE(p)
		cm, ce := meanSE(c)
		dm, de := meanSE(d)
		fmt.Printf("| %s | %.4g ± %.2g | %.4g ± %.2g | %+.3g ± %.2g |\n", s, pm, pe, cm, ce, dm, de)
	}
}
