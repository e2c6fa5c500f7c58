package sched

import (
	"math"
	"testing"

	"esse/internal/cluster"
)

func mit210() *cluster.Cluster { return cluster.MITAvailable(210) }

func TestPSResourceSingleTransfer(t *testing.T) {
	ps := newPS(100, 0) // 100 MB/s
	ps.add(500, 0, -1)
	slot, tt, ok := ps.nextCompletion()
	if !ok || tt != 5 {
		t.Fatalf("single transfer completion at %v (ok=%v), want 5", tt, ok)
	}
	ps.advance(tt)
	tr := ps.complete(slot)
	if tr.core != 0 || math.Abs(tr.remaining) > 1e-9 {
		t.Fatalf("completed %+v, want core 0 with nothing remaining", tr)
	}
	if _, _, ok := ps.nextCompletion(); ok {
		t.Fatal("a transfer is still active after its completion")
	}
}

func TestPSResourceSharing(t *testing.T) {
	ps := newPS(100, 0)
	ps.add(500, 0, -1)
	ps.add(500, 1, -1)
	// Two equal transfers share bandwidth: each runs at 50 MB/s → 10 s.
	_, tt, ok := ps.nextCompletion()
	if !ok || math.Abs(tt-10) > 1e-9 {
		t.Fatalf("shared completion at %v, want 10", tt)
	}
}

func TestPSResourceAccounting(t *testing.T) {
	ps := newPS(100, 0)
	ps.add(300, 0, -1)
	ps.advance(2)
	if math.Abs(ps.moved-200) > 1e-9 {
		t.Fatalf("moved = %v, want 200", ps.moved)
	}
}

func TestSimulateConservation(t *testing.T) {
	res := Simulate(mit210(), 100, ESSEJob(), DefaultConfig())
	if res.JobsCompleted != 100 || res.JobsFailed != 0 {
		t.Fatalf("completed=%d failed=%d", res.JobsCompleted, res.JobsFailed)
	}
	if res.Makespan <= 0 || math.IsInf(res.Makespan, 0) || math.IsNaN(res.Makespan) {
		t.Fatalf("makespan = %v", res.Makespan)
	}
}

// TestSimulateDeterministic runs each configuration twice; with failure
// injection on, every failure draw is on the path, so the whole Result
// must repeat.
func TestSimulateDeterministic(t *testing.T) {
	for _, failure := range []float64{0, 0.1} {
		cfg := DefaultConfig()
		cfg.Policy = Condor
		cfg.Seed = 42
		cfg.FailureProb = failure
		a := Simulate(mit210(), 150, ESSEJob(), cfg)
		b := Simulate(mit210(), 150, ESSEJob(), cfg)
		if *a != *b {
			t.Fatalf("failure %v: same-seed simulations differ:\n%+v\n%+v", failure, *a, *b)
		}
	}
}

func TestLocalIOBeatsMixedNFS(t *testing.T) {
	// The §5.2.1 experiment: 600 members, ~210 cores.
	local := DefaultConfig()
	mixed := DefaultConfig()
	mixed.IOMode = MixedNFS
	rLocal := Simulate(mit210(), 600, ESSEJob(), local)
	rMixed := Simulate(mit210(), 600, ESSEJob(), mixed)
	if rLocal.Makespan >= rMixed.Makespan {
		t.Fatalf("local (%v) not faster than mixed (%v)", rLocal.Makespan, rMixed.Makespan)
	}
	ratio := rMixed.Makespan / rLocal.Makespan
	if ratio < 1.03 || ratio > 1.30 {
		t.Fatalf("mixed/local makespan ratio = %v, want ~1.1 (paper: 86/77)", ratio)
	}
	// Makespans in the right ballpark: tens of minutes.
	if rLocal.Makespan < 60*60 || rLocal.Makespan > 110*60 {
		t.Fatalf("local makespan = %v min, want ~77 min", rLocal.Makespan/60)
	}
}

func TestPertUtilizationJump(t *testing.T) {
	// "CPU utilization jumped from ≈20% to ≈100%".
	local := DefaultConfig()
	mixed := DefaultConfig()
	mixed.IOMode = MixedNFS
	rLocal := Simulate(mit210(), 600, ESSEJob(), local)
	rMixed := Simulate(mit210(), 600, ESSEJob(), mixed)
	if rLocal.PertCPUUtilization < 0.95 {
		t.Fatalf("local pert utilization = %v, want ≈1", rLocal.PertCPUUtilization)
	}
	if rMixed.PertCPUUtilization > 0.40 || rMixed.PertCPUUtilization < 0.05 {
		t.Fatalf("mixed pert utilization = %v, want ≈0.2", rMixed.PertCPUUtilization)
	}
}

func TestCondorSlowerThanSGE(t *testing.T) {
	// "Timings under Condor were between 10−20% slower."
	sge := DefaultConfig()
	condor := DefaultConfig()
	condor.Policy = Condor
	rSGE := Simulate(mit210(), 600, ESSEJob(), sge)
	rCondor := Simulate(mit210(), 600, ESSEJob(), condor)
	ratio := rCondor.Makespan / rSGE.Makespan
	if ratio < 1.05 || ratio > 1.25 {
		t.Fatalf("Condor/SGE ratio = %v, want 1.10–1.20", ratio)
	}
	if rCondor.MeanDispatchDelay <= rSGE.MeanDispatchDelay {
		t.Fatal("Condor should impose larger dispatch delays")
	}
}

func TestJobArrayNotSlowerThanSingletons(t *testing.T) {
	arr := DefaultConfig()
	single := DefaultConfig()
	single.JobArray = false
	rArr := Simulate(mit210(), 600, ESSEJob(), arr)
	rSingle := Simulate(mit210(), 600, ESSEJob(), single)
	if rSingle.Makespan < rArr.Makespan-1e-9 {
		t.Fatalf("singleton submission (%v) beat job array (%v)",
			rSingle.Makespan, rArr.Makespan)
	}
}

func TestFailureInjection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FailureProb = 0.2
	cfg.Seed = 7
	res := Simulate(mit210(), 300, ESSEJob(), cfg)
	if res.JobsFailed == 0 {
		t.Fatal("no failures with 20% failure probability")
	}
	if res.JobsCompleted+res.JobsFailed != 300 {
		t.Fatalf("accounting: %d + %d != 300", res.JobsCompleted, res.JobsFailed)
	}
	noFail := DefaultConfig()
	noFail.Seed = 7
	base := Simulate(mit210(), 300, ESSEJob(), noFail)
	if res.Makespan > base.Makespan*1.05 {
		t.Fatalf("failures should not inflate makespan (failed jobs die early): %v vs %v",
			res.Makespan, base.Makespan)
	}
}

func TestAcousticEnsembleThroughput(t *testing.T) {
	// "more than 6000 ocean acoustics realizations - each ~3 minutes -
	// the system handled all 6000+ jobs without any problem."
	cfg := DefaultConfig()
	cfg.IOMode = MixedNFS // acoustics read sections over NFS
	cfg.PrestageMB = 0
	res := Simulate(mit210(), 6000, AcousticJob(), cfg)
	if res.JobsCompleted != 6000 {
		t.Fatalf("completed %d of 6000", res.JobsCompleted)
	}
	// Ideal makespan ≈ 6000/210 × ~181 s ≈ 86 min; allow I/O slack.
	if res.Makespan < 70*60 || res.Makespan > 140*60 {
		t.Fatalf("acoustic makespan = %v min, implausible", res.Makespan/60)
	}
}

func TestFasterCoresFinishSooner(t *testing.T) {
	fast := &cluster.Cluster{
		Nodes: []cluster.Node{{Name: "fast", Cores: 8, Speed: 2.0}},
		NFS:   cluster.NFS{BandwidthMBps: 1250},
	}
	slow := &cluster.Cluster{
		Nodes: []cluster.Node{{Name: "slow", Cores: 8, Speed: 1.0}},
		NFS:   cluster.NFS{BandwidthMBps: 1250},
	}
	cfg := DefaultConfig()
	cfg.PrestageMB = 0
	rf := Simulate(fast, 16, ESSEJob(), cfg)
	rs := Simulate(slow, 16, ESSEJob(), cfg)
	if rf.Makespan >= rs.Makespan {
		t.Fatalf("2x cores speed not reflected: %v vs %v", rf.Makespan, rs.Makespan)
	}
	ratio := rs.Makespan / rf.Makespan
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("speedup ratio = %v, want ~2", ratio)
	}
}

func TestPrestageDelaysFirstWaveOnly(t *testing.T) {
	with := DefaultConfig()
	without := DefaultConfig()
	without.PrestageMB = 0
	rWith := Simulate(mit210(), 210, ESSEJob(), with)
	rWithout := Simulate(mit210(), 210, ESSEJob(), without)
	if rWith.Makespan <= rWithout.Makespan {
		t.Fatal("prestage cost not visible in makespan")
	}
	// Prestage of 117 nodes × 1.5 GB over 1250 MB/s ≈ 140 s.
	extra := rWith.Makespan - rWithout.Makespan
	if extra < 30 || extra > 600 {
		t.Fatalf("prestage cost = %v s, implausible", extra)
	}
}

func TestZeroJobs(t *testing.T) {
	res := Simulate(mit210(), 0, ESSEJob(), DefaultConfig())
	if res.Makespan != 0 || res.JobsCompleted != 0 {
		t.Fatalf("zero-job simulation: %+v", res)
	}
}

func TestMITClusterShape(t *testing.T) {
	mit := cluster.MIT()
	if mit.TotalCores() != 114*2+3*4 {
		t.Fatalf("MIT cores = %d", mit.TotalCores())
	}
	avail := cluster.MITAvailable(210)
	if avail.TotalCores() != 210 {
		t.Fatalf("available cores = %d", avail.TotalCores())
	}
	if len(cluster.MIT().CoreList()) != 240 {
		t.Fatalf("core list = %d", len(cluster.MIT().CoreList()))
	}
}

func TestPolicyAndModeStrings(t *testing.T) {
	if SGE.String() != "SGE" || Condor.String() != "Condor" {
		t.Fatal("policy names")
	}
	if LocalPrestaged.String() != "all-local" || MixedNFS.String() != "mixed-NFS" {
		t.Fatal("mode names")
	}
}

func BenchmarkSimulate600Members(b *testing.B) {
	c := mit210()
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		Simulate(c, 600, ESSEJob(), cfg)
	}
}

// TestSimulateAllocsDoNotGrowWithJobs holds that a run allocates per
// core and per node, not per event: the transfers live in a slice and
// the event heap holds unboxed events, both sized once. The bound is
// below 0.01 allocations per extra job (the map-and-container/heap
// simulator allocated ≈ 7.8 per job); it is not an equality, as the
// runtime moves a count by one now and then.
func TestSimulateAllocsDoNotGrowWithJobs(t *testing.T) {
	c := mit210()
	for _, pol := range []Policy{SGE, Condor} {
		for _, io := range []IOMode{LocalPrestaged, MixedNFS} {
			cfg := DefaultConfig()
			cfg.Policy, cfg.IOMode = pol, io
			allocs := func(jobs int) float64 {
				return testing.AllocsPerRun(2, func() { Simulate(c, jobs, ESSEJob(), cfg) })
			}
			small, large := allocs(60), allocs(6000)
			if large-small >= 60 {
				t.Errorf("%v %v: %v allocs at 6000 jobs, %v at 60; want fewer than 60 more", pol, io, large, small)
			}
		}
	}
}

// --- the reference fileserver ----------------------------------------------

type refTransfer struct {
	remaining float64 // MB
	core      int     // owning core, or -1 for node prestage
	node      int     // owning node for prestage transfers
}

// refPS is the map-based processor-sharing fileserver the slice in
// psResource replaced, kept verbatim as the oracle the fuzz target
// holds the slice to, bit for bit.
type refPS struct {
	bw        float64
	transfers map[int]*refTransfer
	nextID    int
	lastT     float64
	moved     float64
}

func newRefPS(bw float64) *refPS {
	return &refPS{bw: bw, transfers: make(map[int]*refTransfer)}
}

// advance drains work from all active transfers up to time t.
func (p *refPS) advance(t float64) {
	if n := len(p.transfers); n > 0 {
		rate := p.bw / float64(n)
		dt := t - p.lastT
		for _, tr := range p.transfers {
			tr.remaining -= rate * dt
		}
		p.moved += rate * dt * float64(n)
	}
	p.lastT = t
}

// add registers a transfer and returns its id.
func (p *refPS) add(mb float64, core, node int) int {
	id := p.nextID
	p.nextID++
	p.transfers[id] = &refTransfer{remaining: mb, core: core, node: node}
	return id
}

// nextCompletion returns the id and absolute time of the next transfer
// completion, or ok=false if no transfers are active.
func (p *refPS) nextCompletion() (id int, t float64, ok bool) {
	n := len(p.transfers)
	if n == 0 {
		return 0, 0, false
	}
	rate := p.bw / float64(n)
	best := math.Inf(1)
	bestID := -1
	for tid, tr := range p.transfers {
		done := tr.remaining / rate
		//esselint:allow floatcmp exact-equality tie-break keeps event ordering deterministic across runs
		if done < best || (done == best && tid < bestID) {
			best = done
			bestID = tid
		}
	}
	return bestID, p.lastT + best, true
}

// fuzzSizesMB are the transfer sizes the fuzz target draws from. Three
// values, so equal transfers start together and the tie-break decides.
var fuzzSizesMB = [3]float64{11, 150, 800}

// FuzzFileserverMatchesReference drives psResource and refPS with one
// sequence of operations, a byte each: b%3 picks add a transfer of
// fuzzSizesMB[(b/3)%3], advance the clock (b/3 of 85ths of the way to
// the next completion, or b/3 seconds when none is active), or complete
// the next transfer. Every completion's transfer id and time, and the
// final moved total, must be bit-equal; whatever is left is completed
// at the end.
func FuzzFileserverMatchesReference(f *testing.F) {
	// Three equal transfers: once the first completes, the slice holds
	// ids 2 and 1 in that order, and only the lower-id tie-break picks 1.
	f.Add([]byte{0, 0, 0, 2, 2})
	f.Add([]byte{0, 3, 6, 0, 4, 2, 0, 130, 2, 2, 3, 1, 2})
	f.Add([]byte{7, 0, 253, 3, 3, 6, 2, 9, 0, 127, 2, 5, 2, 2})
	f.Add([]byte{1, 0, 6, 6, 6, 40, 2, 0, 0, 2, 85, 3, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// The drain at the end is quadratic in the transfers left; the DES
		// has at most cores + nodes active, so 512 operations is plenty.
		ops = ops[:min(len(ops), 512)]
		const bw = 1250
		ps, ref := newPS(bw, 0), newRefPS(bw)
		// complete takes the next completion off both and compares them.
		complete := func() bool {
			slot, tt, ok := ps.nextCompletion()
			rid, rt, rok := ref.nextCompletion()
			if ok != rok {
				t.Fatalf("slice has a completion: %v, reference: %v", ok, rok)
			}
			if !ok {
				return false
			}
			if id := ps.transfers[slot].id; id != rid || math.Float64bits(tt) != math.Float64bits(rt) {
				t.Fatalf("next completion: transfer %d at %v, reference %d at %v", id, tt, rid, rt)
			}
			ps.advance(tt)
			ref.advance(rt)
			ps.complete(slot)
			delete(ref.transfers, rid)
			return true
		}
		for _, b := range ops {
			switch arg := int(b / 3); b % 3 {
			case 0:
				mb := fuzzSizesMB[arg%3]
				ps.add(mb, 0, -1)
				ref.add(mb, 0, -1)
			case 1:
				to := ref.lastT + float64(arg)
				if _, tt, ok := ref.nextCompletion(); ok {
					to = ref.lastT + (tt-ref.lastT)*float64(arg)/85
				}
				ps.advance(to)
				ref.advance(to)
			case 2:
				complete()
			}
		}
		for complete() {
		}
		if math.Float64bits(ps.moved) != math.Float64bits(ref.moved) {
			t.Fatalf("moved %v MB, reference %v", ps.moved, ref.moved)
		}
	})
}
