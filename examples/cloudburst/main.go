// Cloudburst: augmenting the home cluster with EC2 for a deadline.
//
// The paper's Section 5.4 asks when it pays to extend an ESSE ensemble
// onto Amazon EC2. This example plans a run: given an ensemble size and
// a forecast deadline, it simulates the home cluster alone and a hybrid
// home+EC2 virtual cluster (Table 2 instance performance), prices the
// cloud share with the Section 5.4.2 cost model, compares the output
// return strategies of Section 5.3.2, and spreads the same run over the
// Section 5.3 Grid sites to see what their queues leave by the deadline.
//
//	go run ./examples/cloudburst [-members 960] [-deadline 60] [-instances 20]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"esse/internal/cluster"
	"esse/internal/remote"
	"esse/internal/sched"
)

func main() {
	members := flag.Int("members", 960, "ensemble size")
	deadlineMin := flag.Float64("deadline", 60, "forecast deadline (minutes)")
	instances := flag.Int("instances", 20, "EC2 instances to add")
	instType := flag.String("type", "c1.xlarge", "EC2 instance type")
	homeCores := flag.Int("cores", 210, "available home-cluster cores")
	flag.Parse()
	if *homeCores < 1 {
		fmt.Fprintln(os.Stderr, "cloudburst: -cores must be at least 1")
		os.Exit(2)
	}

	it, ok := remote.FindInstance(*instType)
	if !ok {
		log.Fatalf("unknown instance type %q", *instType)
	}
	spec := sched.ESSEJob()

	// --- Home cluster alone ---
	home := cluster.MITAvailable(*homeCores)
	cfg := sched.DefaultConfig()
	local := sched.Simulate(home, *members, spec, cfg)
	fmt.Printf("home cluster alone (%d cores): %.1f min for %d members\n",
		*homeCores, local.Makespan/60, *members)

	deadline := *deadlineMin * 60
	if local.Makespan <= deadline {
		fmt.Printf("deadline of %.0f min already met — no cloud needed.\n", *deadlineMin)
		return
	}
	fmt.Printf("deadline of %.0f min MISSED by %.1f min -> bursting to EC2\n\n",
		*deadlineMin, (local.Makespan-deadline)/60)

	// --- Hybrid: home + EC2 virtual cluster (MyCluster-style, §5.4.1) ---
	hybrid, err := remote.VirtualCluster(*homeCores, map[string]int{it.Name: *instances}, nil)
	if err != nil {
		log.Fatal(err)
	}
	hres := sched.Simulate(hybrid, *members, spec, cfg)
	fmt.Printf("hybrid home+%d x %s (%d extra cores): %.1f min\n",
		*instances, it.Name, int(it.Cores)**instances, hres.Makespan/60)
	if hres.Makespan <= deadline {
		fmt.Println("deadline met.")
	} else {
		fmt.Println("still late — raise -instances.")
	}

	// --- Price the cloud share ---
	// Members that would run on EC2 ≈ cloud-core share of the pool.
	cloudCores := float64(int(it.Cores) * *instances)
	share := cloudCores / (cloudCores + float64(*homeCores))
	cloudMembers := int(share * float64(*members))
	outGB := float64(cloudMembers) * spec.OutputMB / 1000
	cm := remote.DefaultCostModel()
	bill := cm.Cost(1.5, outGB, hres.Makespan/3600, *instances, it, false)
	fmt.Printf("\nEC2 bill (%d members in the cloud, %.2f GB back):\n", cloudMembers, outGB)
	fmt.Printf("  in $%.2f + out $%.2f + compute $%.2f = $%.2f (%.0f instance-hours)\n",
		bill.TransferInUSD, bill.TransferOutUSD, bill.ComputeUSD, bill.TotalUSD, bill.BilledHours)
	reserved := cm.Cost(1.5, outGB, hres.Makespan/3600, *instances, it, true)
	fmt.Printf("  with reserved instances: $%.2f\n", reserved.TotalUSD)

	// --- Output return strategy ---
	fmt.Println("\noutput return strategies (seconds after the batch drains):")
	tc := remote.DefaultTransferConfig()
	tc.Files = cloudMembers
	tc.FileMB = spec.OutputMB
	tc.ComputeWindow = hres.Makespan
	for _, strat := range []remote.TransferStrategy{remote.Push, remote.Pull, remote.TwoStage} {
		r := remote.SimulateTransfer(strat, tc)
		suffix := ""
		if r.GatewayOverloaded {
			suffix = "  [gateway overloaded!]"
		}
		fmt.Printf("  %-9s: %7.1f s (peak %d concurrent)%s\n",
			strat, r.CompletionAfterBatch, r.PeakConcurrency, suffix)
	}

	// --- The Grid alternative (§5.3): the same members in contiguous
	// blocks over the Table 1 sites, which queue them without advance
	// reservation (10-30 min at Purdue, 30-120 min at ORNL) ---
	sites := remote.TeragridSites() // ORNL, Purdue, local
	grid, err := remote.SimulateGridRun(spec, *members, []remote.SiteAllocation{
		{Site: sites[2], Cores: *homeCores},
		{Site: sites[1], Cores: sites[1].FreeCores, QueueWaitMin: 600, QueueWaitMax: 1800},
		{Site: sites[0], Cores: sites[0].FreeCores, QueueWaitMin: 1800, QueueWaitMax: 7200},
	}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTeragrid instead (home + Purdue + ORNL behind their batch queues): %.1f min\n", grid.Makespan/60)
	fmt.Printf("  %d of %d members back by the %.0f min deadline, %.0f%% of member pairs finish out of order,\n",
		grid.CompletedBy(deadline), *members, *deadlineMin, 100*grid.OrderInversionFraction())
	fmt.Printf("  worst site block %.0f%% late (a systematic hole in the statistical coverage, §5.3.3)\n",
		100*grid.CoverageHole(deadline))
}
