// Package sched is a discrete-event simulation of running ESSE's
// many-task workload under the two queueing systems of the paper's
// Section 5.2 (Sun Grid Engine and Condor) on a cluster with a shared
// NFS fileserver.
//
// The simulation reproduces the phenomena behind the paper's local
// timings: the ~77 min (all-local prestaged I/O) vs ~86 min (mixed NFS
// I/O) makespans for 600 ensemble members on ~210 cores, the jump of
// pert CPU utilization from ≈20% to ≈100% when input files are
// prestaged, the 10–20% throughput penalty of Condor's reassignment
// delay relative to SGE's immediate dispatch, and the effect of job
// arrays versus one-submission-per-member.
//
// The NFS fileserver is modelled as a processor-sharing fluid resource:
// every active transfer receives an equal share of the uplink bandwidth,
// recomputed at each event boundary.
package sched

import (
	"fmt"
	"math"

	"esse/internal/cluster"
	"esse/internal/rng"
)

// Policy selects the queueing system behaviour.
type Policy int

const (
	// SGE dispatches a queued job the moment a core frees up.
	SGE Policy = iota
	// Condor waits a negotiation interval before reassigning a core, the
	// cycle-harvester caution the paper observed.
	Condor
)

// String names the policy.
func (p Policy) String() string {
	if p == Condor {
		return "Condor"
	}
	return "SGE"
}

// IOMode selects where the large input files live.
type IOMode int

const (
	// LocalPrestaged copies inputs to every node's local disk up front;
	// per-job reads then hit local disk (modelled as free relative to
	// compute, matching the ≈100% CPU utilization observation).
	LocalPrestaged IOMode = iota
	// MixedNFS reads the large input files over NFS for every job.
	MixedNFS
)

// String names the I/O mode.
func (m IOMode) String() string {
	if m == MixedNFS {
		return "mixed-NFS"
	}
	return "all-local"
}

// JobSpec describes one ensemble-member job (pert + pemodel + copy-back).
// CPU seconds are at the speed-1.0 reference core; NFS volumes apply in
// MixedNFS mode only, except OutputMB which is always copied back.
type JobSpec struct {
	PertCPU      float64
	ModelCPU     float64
	PertInputMB  float64
	ModelInputMB float64
	OutputMB     float64
}

// ESSEJob is the paper's ensemble-member job: pert 6.21 s and pemodel
// 1531.33 s on the local Opteron 250 (Table 1, "local" row), with large
// input files and an 11 MB result (the §5.4.2 cost example's per-member
// output).
func ESSEJob() JobSpec {
	return JobSpec{
		PertCPU:      6.21,
		ModelCPU:     1531.33,
		PertInputMB:  150,
		ModelInputMB: 800,
		OutputMB:     11,
	}
}

// AcousticJob is one of the very large ensemble of short acoustics runs
// ("each of which executed for approximately 3 minutes").
func AcousticJob() JobSpec {
	return JobSpec{
		PertCPU:      0.5,
		ModelCPU:     180,
		PertInputMB:  20,
		ModelInputMB: 0,
		OutputMB:     2,
	}
}

// Config controls one simulation run.
type Config struct {
	Policy Policy
	IOMode IOMode
	// JobArray submits all members as one array job; otherwise each
	// member is an individual submission paying SubmitCost serially.
	JobArray bool
	// SubmitCost is the master-side cost of one individual submission.
	SubmitCost float64
	// PrestageMB is the per-node input volume copied before the first
	// job in LocalPrestaged mode (the paper's 1.5 GB input data set).
	PrestageMB float64
	// CondorFirstDelay / CondorReassignDelay bound the uniform
	// negotiation waits (seconds).
	CondorFirstDelayMin, CondorFirstDelayMax       float64
	CondorReassignDelayMin, CondorReassignDelayMax float64
	// SGEDispatchDelay is SGE's (near-immediate) dispatch latency.
	SGEDispatchDelay float64
	// FailureProb is the per-job probability of dying mid-model-run.
	FailureProb float64
	// Seed drives all randomness in the simulation.
	Seed uint64
}

// DefaultConfig returns the calibrated §5.2 setup.
func DefaultConfig() Config {
	return Config{
		Policy:                 SGE,
		IOMode:                 LocalPrestaged,
		JobArray:               true,
		SubmitCost:             0.05,
		PrestageMB:             1500,
		CondorFirstDelayMin:    5,
		CondorFirstDelayMax:    30,
		CondorReassignDelayMin: 120,
		CondorReassignDelayMax: 360,
		SGEDispatchDelay:       0.5,
	}
}

// Result summarizes a simulation.
type Result struct {
	// Makespan is the wall-clock seconds from submission to last
	// completed output copy.
	Makespan float64
	// JobsCompleted and JobsFailed partition the workload.
	JobsCompleted, JobsFailed int
	// PertCPUUtilization is compute/(compute+input-wait) over the pert
	// phase of all jobs — the paper's ≈20% vs ≈100% observation.
	PertCPUUtilization float64
	// MeanDispatchDelay averages the scheduler-imposed wait per job.
	MeanDispatchDelay float64
	// NFSMBMoved totals bytes through the fileserver.
	NFSMBMoved float64
	// MeanJobSeconds and MaxJobSeconds measure per-job residence time
	// (dispatch to output completion).
	MeanJobSeconds, MaxJobSeconds float64
}

// --- processor-sharing NFS model ------------------------------------------

type psTransfer struct {
	id        int
	remaining float64 // MB
	core      int     // owning core, or -1 for node prestage
	node      int     // owning node for prestage transfers
}

// psResource keeps its active transfers in a dense slice, in no
// particular order: a completion is swap-removed, and nextCompletion
// breaks equal completion times by the lower id, so the order of the
// slice never reaches a result.
type psResource struct {
	bw        float64
	transfers []psTransfer
	nextID    int
	lastT     float64
	moved     float64
}

func newPS(bw float64, capacity int) *psResource {
	return &psResource{bw: bw, transfers: make([]psTransfer, 0, capacity)}
}

// advance drains work from all active transfers up to time t.
func (p *psResource) advance(t float64) {
	if n := len(p.transfers); n > 0 {
		rate := p.bw / float64(n)
		dt := t - p.lastT
		for i := range p.transfers {
			p.transfers[i].remaining -= rate * dt
		}
		p.moved += rate * dt * float64(n)
	}
	p.lastT = t
}

// add registers a transfer under the next id.
func (p *psResource) add(mb float64, core, node int) {
	p.transfers = append(p.transfers, psTransfer{id: p.nextID, remaining: mb, core: core, node: node})
	p.nextID++
}

// nextCompletion returns the slot and absolute time of the next
// transfer completion, or ok=false if no transfers are active.
func (p *psResource) nextCompletion() (slot int, t float64, ok bool) {
	n := len(p.transfers)
	if n == 0 {
		return 0, 0, false
	}
	rate := p.bw / float64(n)
	best := math.Inf(1)
	bestID := -1
	for i := range p.transfers {
		tr := &p.transfers[i]
		done := tr.remaining / rate
		//esselint:allow floatcmp exact-equality tie-break keeps event ordering deterministic across runs
		if done < best || (done == best && tr.id < bestID) {
			best = done
			bestID = tr.id
			slot = i
		}
	}
	return slot, p.lastT + best, true
}

// complete removes the transfer in slot and returns it.
func (p *psResource) complete(slot int) psTransfer {
	tr := p.transfers[slot]
	last := len(p.transfers) - 1
	p.transfers[slot] = p.transfers[last]
	p.transfers = p.transfers[:last]
	return tr
}

// --- event heap ------------------------------------------------------------

type event struct {
	t    float64
	core int
	seq  int // tiebreaker for determinism
}

// eventHeap is a binary min-heap on (t, seq). seq is unique, so the
// order is total and any heap pops the same sequence.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	//esselint:allow floatcmp exact comparison: equal times must fall through to the seq tiebreaker bit-for-bit
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(t float64, core, seq int) {
	*h = append(*h, event{t: t, core: core, seq: seq})
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < last && q.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < last && q.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// --- core state machine ------------------------------------------------------

// stage is the per-core lifecycle: a parked core (stIdle) is given a
// job (stDispatch) and walks the pert-IO → pert-CPU → model-IO →
// model-CPU → output-IO ladder; a mid-model failure or a finished
// output hands the core back to tryAssign, which parks it or
// dispatches the next job. No stage is terminal — cores are reused.
type stage int

const (
	stIdle stage = iota
	stDispatch
	stPertIO
	stPertCPU
	stModelIO
	stModelCPU
	stOutIO
)

type coreSim struct {
	stage       stage
	jobStart    float64
	firstJob    bool
	willFail    bool
	pertIOStart float64
}

// Simulate runs the DES for `jobs` identical JobSpec jobs on the cluster.
func Simulate(c *cluster.Cluster, jobs int, spec JobSpec, cfg Config) *Result {
	if jobs <= 0 {
		return &Result{}
	}
	cores := c.CoreList()
	nCores := len(cores)
	if nCores == 0 {
		panic("sched: cluster has no cores")
	}
	random := rng.New(cfg.Seed)
	// At most one transfer per core and one prestage per node is active.
	ps := newPS(c.NFS.BandwidthMBps, nCores+len(c.Nodes))

	res := &Result{}
	state := make([]coreSim, nCores)
	for i := range state {
		state[i] = coreSim{firstJob: true}
	}

	// Node prestage gates (LocalPrestaged only).
	nodeReady := make([]bool, len(c.Nodes))
	if cfg.IOMode == LocalPrestaged && cfg.PrestageMB > 0 {
		for ni := range c.Nodes {
			ps.add(cfg.PrestageMB, -1, ni)
		}
	} else {
		for ni := range nodeReady {
			nodeReady[ni] = true
		}
	}

	nextJob := 0
	submitReady := func(job int) float64 {
		if cfg.JobArray {
			return 0
		}
		return float64(job+1) * cfg.SubmitCost
	}

	dispatchDelay := func(cs *coreSim) float64 {
		switch cfg.Policy {
		case Condor:
			if cs.firstJob {
				return cfg.CondorFirstDelayMin +
					(cfg.CondorFirstDelayMax-cfg.CondorFirstDelayMin)*random.Float64()
			}
			return cfg.CondorReassignDelayMin +
				(cfg.CondorReassignDelayMax-cfg.CondorReassignDelayMin)*random.Float64()
		default:
			return cfg.SGEDispatchDelay
		}
	}

	// A core has at most one pending event.
	fixed := make(eventHeap, 0, nCores)
	seq := 0
	totalDispatchDelay := 0.0
	pertCPUTime, pertIOTime := 0.0, 0.0
	jobSecondsSum, jobSecondsMax := 0.0, 0.0
	now := 0.0

	// tryAssign gives core ci its next job (entering dispatch stage).
	tryAssign := func(ci int, t float64) {
		cs := &state[ci]
		if nextJob >= jobs {
			cs.stage = stIdle
			return
		}
		if !nodeReady[cores[ci].Node] {
			cs.stage = stIdle // re-assigned when prestage completes
			return
		}
		job := nextJob
		nextJob++
		d := dispatchDelay(cs)
		start := math.Max(t, submitReady(job)) + d
		totalDispatchDelay += (start - t)
		cs.stage = stDispatch
		cs.jobStart = start
		cs.willFail = cfg.FailureProb > 0 && random.Bool(cfg.FailureProb)
		seq++
		fixed.push(start, ci, seq)
	}

	// enterStage moves a core into its next lifecycle stage at time t.
	var enterStage func(ci int, t float64)
	enterStage = func(ci int, t float64) {
		cs := &state[ci]
		speed := cores[ci].Speed
		switch cs.stage {
		case stDispatch:
			cs.stage = stPertIO
			cs.pertIOStart = t
			if cfg.IOMode == MixedNFS && spec.PertInputMB > 0 {
				ps.add(spec.PertInputMB, ci, -1)
				return
			}
			enterStage(ci, t) // no input wait: pert IO phase is empty
		case stPertIO:
			pertIOTime += t - cs.pertIOStart
			cs.pertIOStart = 0
			cs.stage = stPertCPU
			dur := spec.PertCPU / speed
			pertCPUTime += dur
			seq++
			fixed.push(t+dur, ci, seq)
		case stPertCPU:
			cs.stage = stModelIO
			if cfg.IOMode == MixedNFS && spec.ModelInputMB > 0 {
				ps.add(spec.ModelInputMB, ci, -1)
				return
			}
			enterStage(ci, t)
		case stModelIO:
			cs.stage = stModelCPU
			dur := spec.ModelCPU / speed
			if cs.willFail {
				dur *= random.Float64() // dies partway through
			}
			seq++
			fixed.push(t+dur, ci, seq)
		case stModelCPU:
			if cs.willFail {
				res.JobsFailed++
				finishJob(res, cs, t, &jobSecondsSum, &jobSecondsMax)
				tryAssign(ci, t)
				return
			}
			cs.stage = stOutIO
			if spec.OutputMB > 0 {
				ps.add(spec.OutputMB, ci, -1)
				return
			}
			enterStage(ci, t)
		case stOutIO:
			res.JobsCompleted++
			finishJob(res, cs, t, &jobSecondsSum, &jobSecondsMax)
			tryAssign(ci, t)
		case stIdle:
			// Idle cores advance only through tryAssign; an event landing
			// here means the heap holds a stale entry for a core that was
			// since parked — a simulator invariant violation, not a state
			// to wave through silently.
			panic(fmt.Sprintf("sched: lifecycle event for idle core %d at t=%.3f", ci, t))
		}
	}

	// Initial assignment: one pass over all cores.
	for ci := range state {
		tryAssign(ci, 0)
	}

	for {
		// Choose the earliest of the fixed-event heap and PS completion.
		var tFixed = math.Inf(1)
		if len(fixed) > 0 {
			tFixed = fixed[0].t
		}
		psSlot, tPS, psOK := ps.nextCompletion()
		if math.IsInf(tFixed, 1) && !psOK {
			break
		}
		if psOK && tPS <= tFixed {
			now = tPS
			ps.advance(now)
			tr := ps.complete(psSlot)
			if tr.core == -1 { // a node's prestage
				nodeReady[tr.node] = true
				// Wake idle cores on this node.
				for ci := range state {
					if cores[ci].Node == tr.node && state[ci].stage == stIdle {
						tryAssign(ci, now)
					}
				}
				continue
			}
			enterStage(tr.core, now)
			continue
		}
		e := fixed.pop()
		now = e.t
		ps.advance(now)
		enterStage(e.core, now)
	}

	done := res.JobsCompleted + res.JobsFailed
	if done > 0 {
		res.MeanDispatchDelay = totalDispatchDelay / float64(done)
		res.MeanJobSeconds = jobSecondsSum / float64(done)
	}
	res.MaxJobSeconds = jobSecondsMax
	res.Makespan = now
	res.NFSMBMoved = ps.moved
	if pertCPUTime+pertIOTime > 0 {
		res.PertCPUUtilization = pertCPUTime / (pertCPUTime + pertIOTime)
	}
	if done != jobs {
		panic(fmt.Sprintf("sched: accounting error: %d of %d jobs accounted", done, jobs))
	}
	return res
}

func finishJob(res *Result, cs *coreSim, t float64, sum, max *float64) {
	d := t - cs.jobStart
	*sum += d
	if d > *max {
		*max = d
	}
	cs.firstJob = false
}
