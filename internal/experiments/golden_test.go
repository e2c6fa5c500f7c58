package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"esse/internal/core"
	"esse/internal/metrics"
	"esse/internal/realtime"
	"esse/internal/remote"
	"esse/internal/sched"
	"esse/internal/workflow"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json with this run's values")

const goldenPath = "testdata/golden.json"

// values is one section's pinned numbers, keyed below the section name.
type values map[string]float64

// goldenSections is every fixed-seed number cmd/repro prints, at
// cmd/repro's own configuration (realtime.DefaultConfig, seed 1), plus
// the SVD-cadence rows. Wall-clock quantities (Fig. 1's forecaster
// time, Figs. 3/4's speedup) are not numbers of (seed, config) and are
// left to the report.
var goldenSections = []struct {
	name string
	run  func(t *testing.T) values
}{
	{"table1", func(t *testing.T) values {
		rows, _ := Table1()
		v := values{}
		for _, r := range rows {
			v[r.Site+"/pert_s"] = r.Pert
			v[r.Site+"/pemodel_s"] = r.Model
		}
		return v
	}},
	{"table2", func(t *testing.T) values {
		rows, _ := Table2()
		v := values{}
		for _, r := range rows {
			v[r.Instance+"/pert_s"] = r.Pert
			v[r.Instance+"/pemodel_s"] = r.Model
			v[r.Instance+"/cores"] = r.Cores
		}
		return v
	}},
	{"timings", func(t *testing.T) values {
		res, _ := LocalTimings(600, 6000, 210, 1)
		v := values{}
		for name, r := range map[string]*sched.Result{
			"local-sge": res.LocalSGE, "mixed-sge": res.MixedSGE,
			"local-condor": res.LocalCondor, "acoustics": res.Acoustics,
		} {
			v[name+"/makespan_s"] = r.Makespan
			v[name+"/jobs_completed"] = float64(r.JobsCompleted)
			v[name+"/jobs_failed"] = float64(r.JobsFailed)
			v[name+"/pert_cpu_utilization"] = r.PertCPUUtilization
			v[name+"/mean_dispatch_delay_s"] = r.MeanDispatchDelay
			v[name+"/nfs_mb_moved"] = r.NFSMBMoved
			v[name+"/mean_job_s"] = r.MeanJobSeconds
			v[name+"/max_job_s"] = r.MaxJobSeconds
		}
		return v
	}},
	{"cost", func(t *testing.T) values {
		b, text := CostExample()
		// The reserved-instance variant is only printed; recompute it
		// and tie it to the text so the two cannot drift apart.
		it, _ := remote.FindInstance("c1.xlarge")
		r := remote.DefaultCostModel().Cost(1.5, 10.56, 2, 20, it, true)
		if line := fmt.Sprintf("$%6.2f total ($%.2f compute)", r.TotalUSD, r.ComputeUSD); !strings.Contains(text, line) {
			t.Errorf("cost text does not print the reserved variant %q:\n%s", line, text)
		}
		return values{
			"transfer_in_usd": b.TransferInUSD, "transfer_out_usd": b.TransferOutUSD,
			"compute_usd": b.ComputeUSD, "billed_hours": b.BilledHours, "total_usd": b.TotalUSD,
			"reserved/compute_usd": r.ComputeUSD, "reserved/total_usd": r.TotalUSD,
		}
	}},
	{"fig1", func(t *testing.T) values {
		cycles, _, err := Fig1Timelines(realtime.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		// Three rows a cycle; the T and sim rows of every cycle cover the
		// same ocean interval, so the two makespans are one reading.
		makespan := cycles[len(cycles)-1].OceanEnd - cycles[0].OceanStart
		return values{
			"spans":                  float64(3 * len(cycles)),
			"observation_makespan_s": makespan,
			"simulation_makespan_s":  makespan,
		}
	}},
	{"fig2", func(t *testing.T) values {
		res, _, err := Fig2ESSECycle(realtime.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		c := res.Cycle
		v := cycleValues(c)
		v["members_failed"] = float64(c.Ensemble.MembersFailed)
		v["members_cancelled"] = float64(c.Ensemble.MembersCancelled)
		v["svd_rounds"] = float64(c.Ensemble.SVDRounds)
		v["converged"] = boolValue(c.Ensemble.Converged)
		v["rank"] = float64(res.Rank)
		v["innovation"] = c.InnovationNorm
		v["residual"] = c.ResidualNorm
		return v
	}},
	{"fig34", func(t *testing.T) values {
		res, _, err := Fig3Fig4Comparison(24, 8, 0, 100, 1)
		if err != nil {
			t.Fatal(err)
		}
		ser, par := res.Serial.Subspace.Sigma, res.Parallel.Subspace.Sigma
		if len(ser) != len(par) {
			t.Fatalf("serial rank %d, parallel rank %d", len(ser), len(par))
		}
		v := values{
			"rho":                 res.SubspaceAgree,
			"members_used":        float64(res.Parallel.MembersUsed),
			"serial/svd_rounds":   float64(res.Serial.SVDRounds),
			"parallel/svd_rounds": float64(res.Parallel.SVDRounds),
			"serial/members_used": float64(res.Serial.MembersUsed),
		}
		for i := range par {
			if math.Float64bits(ser[i]) != math.Float64bits(par[i]) {
				t.Errorf("sigma[%d]: serial %v, parallel %v; the same member set must give the same bits", i, ser[i], par[i])
			}
			v[fmt.Sprintf("sigma/%02d", i)] = par[i]
		}
		return v
	}},
	{"fig56", func(t *testing.T) values {
		res, _, err := Fig5Fig6Uncertainty(realtime.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		v := values{"deep_level": float64(res.DeepLvl)}
		for name, field := range map[string][]float64{"sst": res.SST, "deep": res.Deep} {
			st := metrics.Stats(field)
			v[name+"/min"], v[name+"/max"], v[name+"/mean"] = st.Min, st.Max, st.Mean
		}
		for _, c := range res.Cycles {
			for k, x := range cycleValues(c) {
				v[fmt.Sprintf("cycle-%d/%s", c.Cycle, k)] = x
			}
		}
		return v
	}},
	{"cadence", cadenceValues},
}

func cycleValues(c *realtime.CycleResult) values {
	return values{
		"members_used":    float64(c.Ensemble.MembersUsed),
		"rho":             c.Ensemble.Rho,
		"rmse_forecast_t": c.RMSEForecastT,
		"rmse_analysis_t": c.RMSEAnalysisT,
	}
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// cadenceValues runs the Figs. 3/4 toy workload (seed 1, state 100) on a
// 64-member pool at SVD batch 4, 16 and 64: once with the pool fixed,
// once with an adaptive criterion under CancelImmediately. It pins
// rounds and members used, and asserts EXPERIMENTS' conclusion where it
// holds: a smaller batch pays for more rounds and detects convergence
// no later.
func cadenceValues(t *testing.T) values {
	truth := toySubspace(1, 100, 3)
	runner := delayedToyRunner(truth, 2, 0)
	v := values{}
	for _, mode := range []struct {
		name      string
		criterion core.ConvergenceCriterion
	}{
		{"fixed", core.ConvergenceCriterion{MinSimilarity: 2}},
		{"adaptive", core.ConvergenceCriterion{MinSimilarity: 0.99, MaxVarianceChange: 0.1}},
	} {
		prevRounds, prevUsed := math.MaxInt, 0
		for _, batch := range []int{4, 16, 64} {
			cfg := workflow.DefaultConfig()
			cfg.InitialSize, cfg.MaxSize, cfg.Workers = 64, 64, 8
			cfg.SVDBatch = batch
			cfg.Policy = workflow.CancelImmediately
			cfg.Criterion = mode.criterion
			res, err := workflow.RunParallel(context.Background(), cfg, make([]float64, 100), runner)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/batch-%d/", mode.name, batch)
			v[key+"svd_rounds"] = float64(res.SVDRounds)
			v[key+"members_used"] = float64(res.MembersUsed)
			if res.SVDRounds >= prevRounds || res.MembersUsed < prevUsed {
				t.Errorf("%s batch %d: %d rounds, %d members used; a smaller batch gave %d rounds, %d members",
					mode.name, batch, res.SVDRounds, res.MembersUsed, prevRounds, prevUsed)
			}
			prevRounds, prevUsed = res.SVDRounds, res.MembersUsed
		}
	}
	return v
}

// TestGolden compares, bit for bit, every number of goldenSections with
// testdata/golden.json. These are pure functions of (seed, config), so
// a difference is a change of arithmetic, not noise. After a deliberate
// one (a re-pin, DESIGN "Re-pinning"), run
//
//	go test ./internal/experiments -run TestGolden -update
//
// and git diff testdata/golden.json is the before/after list.
func TestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("values are pinned on amd64; on %s the compiler may fuse multiply-adds, which changes last bits", runtime.GOARCH)
	}
	want := values{}
	if b, err := os.ReadFile(goldenPath); err == nil {
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
	} else if !*update {
		t.Fatal(err)
	}
	for _, sec := range goldenSections {
		t.Run(sec.name, func(t *testing.T) {
			prefix := sec.name + "/"
			got := values{}
			for k, x := range sec.run(t) {
				got[prefix+k] = x
			}
			var moved []string
			for k, w := range want {
				if _, ok := got[k]; !ok && strings.HasPrefix(k, prefix) {
					moved = append(moved, fmt.Sprintf("%s: no longer computed, golden %v", k, w))
					delete(want, k)
				}
			}
			for k, g := range got {
				if w, ok := want[k]; !ok {
					moved = append(moved, fmt.Sprintf("%s: %v, not in the golden file", k, g))
				} else if math.Float64bits(g) != math.Float64bits(w) {
					moved = append(moved, fmt.Sprintf("%s: %v, golden %v", k, g, w))
				}
				want[k] = g
			}
			if len(moved) > 0 && !*update {
				sort.Strings(moved)
				t.Errorf("%d values moved (after a deliberate change: -update, then git diff %s):\n  %s",
					len(moved), goldenPath, strings.Join(moved, "\n  "))
			}
		})
	}
	if *update && !t.Failed() {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
