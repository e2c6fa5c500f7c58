// Package workflow implements the ESSE many-task workflow of the paper's
// Section 4 as one coordinator loop with two entry points: RunParallel,
// the MTC implementation (Fig. 4) with a pool of concurrent
// perturb/forecast tasks, a continuously running diff stage, a
// continuously running SVD + convergence stage, adaptive ensemble
// growth, convergence-driven cancellation, deadline tolerance and
// failure tolerance; and RunSerial, the serial reference (Fig. 3), which
// is the same loop with one worker and the SVD held back until the
// whole pool is in. The loop alone decides in what order members enter
// the covariance: member-index order, whatever order they finish in.
//
// The five ESSE-vs-high-throughput differences the paper enumerates map
// to engine features as follows:
//
//  1. hard forecast deadline        → Config.Deadline, late members ignored
//  2. dynamically adjusted size     → Config.GrowthFactor / MaxSize
//  3. individual members ignorable  → failure counting, no global abort
//  4. full member datasets required → members return complete state vectors
//  5. members may be parallel codes → MemberRunner is free to fan out
package workflow

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"esse/internal/core"
	"esse/internal/covstore"
	"esse/internal/linalg"
	"esse/internal/taskpool"
	"esse/internal/telemetry"
)

// MemberRunner computes one ensemble member: it perturbs the initial
// conditions for the given member index and integrates the forecast,
// returning the packed forecast state. Implementations must be safe for
// concurrent invocation, should derive all randomness from the index so
// results are independent of scheduling order, and must return ctx.Err()
// promptly when ctx is done (the engine calls the runner once for every
// index it dispatches, even if the run was cancelled in between).
type MemberRunner func(ctx context.Context, index int) ([]float64, error)

// DrainPolicy selects what happens to in-flight members once the error
// subspace has converged (Section 4.1 discusses both variants).
type DrainPolicy int

const (
	// CancelImmediately cancels queued and running members and uses the
	// subspace from the converging SVD: a member that finishes anyway
	// (a runner that cannot be interrupted) is counted as cancelled, so
	// the result does not depend on how many were in flight.
	CancelImmediately DrainPolicy = iota
	// DrainAndUse stops launching new members but lets running ones
	// finish, then performs a final SVD over everything available. How
	// many are running at that moment is a matter of timing, and so is
	// the result.
	DrainAndUse
)

// Config parameterizes an ESSE workflow run.
type Config struct {
	// InitialSize is N, the first ensemble size attempted.
	InitialSize int
	// MaxSize is Nmax, the ensemble size cap.
	MaxSize int
	// GrowthFactor scales the pool when convergence fails (N → ⌈N·g⌉).
	GrowthFactor float64
	// MaxRank caps the error subspace rank (0 = ensemble size).
	MaxRank int
	// SVDBatch runs the SVD stage after every batch of this many newly
	// completed members ("a multiple of a set number of realizations").
	SVDBatch int
	// Criterion is the subspace convergence test.
	Criterion core.ConvergenceCriterion
	// Workers is the number of concurrent forecast tasks (pool width).
	Workers int
	// Deadline bounds the wall-clock time of the whole ensemble (Tmax).
	// Zero means no deadline. Members not finished by the deadline are
	// ignored, per the paper.
	Deadline time.Duration
	// Policy selects the convergence cancellation behaviour.
	Policy DrainPolicy
	// SigmaRelTol drops subspace modes below this fraction of σmax.
	SigmaRelTol float64
	// Retries is how many times a failed member is retried before its
	// index is abandoned (failures are tolerable, not catastrophic).
	Retries int
	// Store, when non-nil, routes anomaly snapshots through the on-disk
	// triple-file protocol: the diff stage publishes and the SVD stage
	// reads back the safe file, as the shell implementation did. Each
	// run starts a generation of its own in the store.
	Store *covstore.Store
	// OnProgress, when non-nil, is invoked from the coordinator after
	// every member completion and SVD round with a progress snapshot —
	// the monitoring hook the shell implementation lacked ("no easy way
	// for the user to monitor the progress of one's jobs", §5.3.1). The
	// callback runs on the coordinator goroutine and must be fast.
	OnProgress func(Progress)
	// Telemetry, when non-nil, receives per-member lifecycle events
	// (queued → dispatched → running → retried → done/failed/cancelled),
	// wall-clock spans for members and SVD rounds, and engine metrics.
	// The nil default makes every instrumentation call a no-op.
	Telemetry *telemetry.Telemetry
}

// Progress is a point-in-time snapshot of a running ensemble.
type Progress struct {
	Completed, Failed, Cancelled int
	Target                       int
	SVDRounds                    int
	Converged                    bool
	Rho                          float64
	Elapsed                      time.Duration
}

// DefaultConfig returns a workable configuration for tests and examples.
func DefaultConfig() Config {
	return Config{
		InitialSize:  16,
		MaxSize:      64,
		GrowthFactor: 1.5,
		MaxRank:      0,
		SVDBatch:     8,
		Criterion:    core.DefaultConvergence(),
		Workers:      4,
		Policy:       CancelImmediately,
		SigmaRelTol:  1e-8,
		Retries:      1,
	}
}

func (c *Config) validate() error {
	if c.InitialSize < 2 {
		return errors.New("workflow: InitialSize must be >= 2")
	}
	if c.MaxSize < c.InitialSize {
		return errors.New("workflow: MaxSize must be >= InitialSize")
	}
	if c.GrowthFactor < 1 {
		return errors.New("workflow: GrowthFactor must be >= 1")
	}
	if c.Workers < 1 {
		return errors.New("workflow: Workers must be >= 1")
	}
	if c.SVDBatch < 1 {
		return errors.New("workflow: SVDBatch must be >= 1")
	}
	return nil
}

// Result summarizes an ESSE ensemble run.
type Result struct {
	// Subspace is the final error subspace estimate.
	Subspace *core.Subspace
	// Mean is the ensemble mean state (central + mean anomaly).
	Mean []float64
	// Central is the unperturbed central forecast.
	Central []float64
	// Converged reports whether the convergence criterion was met.
	Converged bool
	// Rho is the last measured subspace similarity coefficient.
	Rho float64
	// MembersUsed counts members contributing to the final subspace.
	MembersUsed int
	// MembersFailed counts members abandoned after retries.
	MembersFailed int
	// MembersCancelled counts launched members cancelled by convergence,
	// deadline or the caller. MembersUsed + MembersFailed +
	// MembersCancelled is the number of indices the runner was called with.
	MembersCancelled int
	// SVDRounds counts SVD/convergence stage executions.
	SVDRounds int
	// PoolSizes records the ensemble size after each growth step,
	// starting with the initial size.
	PoolSizes []int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Anomalies is the final member-anomaly matrix (stateDim × used) and
	// MemberIndices its column-to-member bookkeeping — the inputs the
	// ESSE smoother needs (core.SmoothPrevious).
	Anomalies *linalg.Dense
	// MemberIndices records which member produced each anomaly column.
	MemberIndices []int
}

// MembersOverlap reports whether any two of the workflow/member spans
// among events (a Tracer's ChromeEvents) overlap in wall time: the
// signature of distributed (Fig. 4) rather than serial (Fig. 3)
// execution.
func MembersOverlap(events []telemetry.ChromeEvent) bool {
	var members []telemetry.ChromeEvent
	for _, e := range events {
		if e.Ph == "X" && e.Cat == "workflow" && strings.HasPrefix(e.Name, "member-") {
			members = append(members, e)
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Ts < members[j].Ts })
	end := 0.0
	for _, e := range members {
		if e.Ts < end {
			return true
		}
		end = max(end, e.Ts+e.Dur)
	}
	return false
}

// growTarget computes the next pool size: ⌈cur·g⌉, at least one more
// and at most MaxSize.
func growTarget(cur int, cfg *Config) int {
	return min(max(int(float64(cur)*cfg.GrowthFactor+0.999999), cur+1), cfg.MaxSize)
}

type memberDone struct {
	state []float64
	err   error
}

// RunParallel executes the many-task (Fig. 4) ESSE workflow: a pool of
// Workers goroutines computes members concurrently while the coordinator
// differences them into the accumulator, runs the SVD/convergence stage
// every SVDBatch members, grows the pool on convergence failure and ends
// the run on success, deadline expiry or external cancellation.
//
// Members enter the covariance strictly in member-index order whatever
// order they finish in, so without a Deadline or external cancellation,
// and under CancelImmediately, the result is a pure function of
// (cfg, central, runner): worker count, completion order and telemetry
// do not change a bit of it.
func RunParallel(ctx context.Context, cfg Config, central []float64, runner MemberRunner) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return run(ctx, cfg, central, runner, false)
}

// RunSerial executes the serial reference implementation of Fig. 3 as a
// configuration of the same loop: one worker, and the SVD and the
// convergence test only once the whole pool of N members is accounted
// for; on failure the ensemble is enlarged to N₂ and members N+1..N₂
// follow. cfg.Workers is ignored beyond validation.
//
// It deliberately retains the bottlenecks the paper lists — no exposed
// parallelism between forecasts, the SVD waits for the whole pool, and
// growth waits for the SVD — so that the Fig. 3 vs Fig. 4 benchmarks
// quantify what the MTC transformation buys.
func RunSerial(ctx context.Context, cfg Config, central []float64, runner MemberRunner) (*Result, error) {
	// Validate first: Workers < 1 is rejected here as in RunParallel.
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.Workers = 1
	return run(ctx, cfg, central, runner, true)
}

// run is the one ESSE coordinator. wholePool selects the SVD cadence:
// false runs the SVD stage every cfg.SVDBatch committed members, true
// only when every member of the current pool is accounted for.
func run(ctx context.Context, cfg Config, central []float64, runner MemberRunner, wholePool bool) (*Result, error) {
	start := time.Now()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if cfg.Deadline > 0 {
		var cancelT context.CancelFunc
		runCtx, cancelT = context.WithTimeout(runCtx, cfg.Deadline)
		defer cancelT()
	}

	acc := core.NewAccumulator(central)
	if cfg.Store != nil {
		// Member indices cannot tell this run's members from an earlier
		// run's, so the run gets a column log of its own.
		cfg.Store.NewGeneration()
	}

	// Metric registration may allocate, so it happens once up front; the
	// handles below are lock-free (and nil no-ops when telemetry is off).
	tel := cfg.Telemetry
	cMembersDone := tel.Counter("esse_workflow_members_total", "Ensemble members by final outcome.", "outcome", "done")
	cMembersFailed := tel.Counter("esse_workflow_members_total", "Ensemble members by final outcome.", "outcome", "failed")
	cMembersCancelled := tel.Counter("esse_workflow_members_total", "Ensemble members by final outcome.", "outcome", "cancelled")
	cRetries := tel.Counter("esse_workflow_retries_total", "Member attempts that failed and were retried.")
	cSVDRounds := tel.Counter("esse_workflow_svd_rounds_total", "SVD/convergence stage executions.")
	gTarget := tel.Gauge("esse_workflow_target_members", "Current ensemble size target.")
	gTarget.Set(float64(cfg.InitialSize))

	// The members run on the shared task pool; the rest is the ESSE
	// coordinator: commit → accumulate → SVD → grow or finish.
	pool := &taskpool.Pool[memberDone]{
		Workers: cfg.Workers,
		Phase:   func(idx int, ph telemetry.Phase) { tel.Emit("member", idx, 0, ph) },
		Task: func(ctx context.Context, lane int64, idx int) memberDone {
			// The member span carries the worker's lane and rides the
			// context into the runner, so phase spans the runner opens
			// (perturb, forecast) land on the same lane as children.
			mctx, sp := tel.SpanCtx(ctx, "workflow", "member", int64(idx), lane)
			state, err := runWithRetries(mctx, cfg.Retries, idx, runner, tel, cRetries)
			sp.End()
			return memberDone{state: state, err: err}
		},
	}
	target := cfg.InitialSize

	res := &Result{PoolSizes: []int{cfg.InitialSize}, Central: acc.Central()}
	// The SVD stage works in Gram space: a round folds the new members
	// into the tracker and tests convergence on coefficients; the modes
	// are formed once, after the loop.
	tracker := core.NewSubspaceTracker(cfg.MaxRank, cfg.SigmaRelTol)
	var safe *covstore.Snapshot // the columns read back from the store so far

	runSVD := func() error {
		// ctx (not runCtx) on purpose: runCtx is already cancelled when
		// convergence fires, but the final SVD must still parent under
		// the caller's span; SpanCtx uses the context only for lineage.
		_, sp := tel.SpanCtx(ctx, "workflow", "svd", int64(res.SVDRounds), 0)
		defer sp.End()
		// The round reads the accumulator's columns in place: the tracker
		// reads only the new ones against the rest.
		cols, indices := acc.Columns(), acc.Indices()
		if cfg.Store != nil {
			// Publish through the triple-file protocol and read back the
			// safe file, like the shell implementation's differ/SVD pair;
			// the round then runs on the file's columns. Both sides move
			// only the members new since the last round.
			if _, err := cfg.Store.Publish(cols, indices); err != nil {
				return fmt.Errorf("workflow: diff publish: %w", err)
			}
			var err error
			if safe, err = cfg.Store.Read(safe); err != nil {
				return fmt.Errorf("workflow: SVD read: %w", err)
			}
			cols, indices = safe.Cols, safe.Indices
		}
		if len(cols) < 2 {
			return nil
		}
		if err := tracker.Update(cols, indices); err != nil {
			return fmt.Errorf("workflow: SVD round %d: %w", res.SVDRounds, err)
		}
		res.SVDRounds++
		cSVDRounds.Inc()
		// Not converged, ρ = 0, until there are two rounds to compare.
		ok, rho := tracker.Converged(cfg.Criterion)
		res.Rho = rho
		if ok {
			res.Converged = true // stays set through DrainAndUse's final round
			if cfg.Policy == DrainAndUse {
				pool.Stop()
			} else {
				cancel()
			}
		}
		return nil
	}

	// Commit is the per-member body of the run: accumulate or count the
	// member, run the SVD stage if it is due, then grow or end the run.
	pool.Commit = func(idx int, done memberDone) error {
		// The ocean run cannot be interrupted, so members in flight at
		// convergence still finish; under CancelImmediately they are the
		// waste the policy accepts, not input to one more SVD.
		late := done.err == nil && res.Converged && cfg.Policy == CancelImmediately
		switch {
		case late || isCtxErr(done.err):
			res.MembersCancelled++
			cMembersCancelled.Inc()
			tel.Emit("member", idx, 0, telemetry.PhaseCancelled)
			return nil
		case done.err != nil:
			res.MembersFailed++
			cMembersFailed.Inc()
			tel.Emit("member", idx, 0, telemetry.PhaseFailed)
		default:
			if err := acc.Add(idx, done.state); err != nil {
				return err
			}
			res.MembersUsed++
			cMembersDone.Inc()
			tel.Emit("member", idx, 0, telemetry.PhaseDone)
		}

		accounted := res.MembersUsed + res.MembersFailed
		due := res.MembersUsed >= tracker.Len()+cfg.SVDBatch
		if wholePool {
			// Fig. 3: the SVD waits for the whole pool.
			due = accounted >= target && res.MembersUsed > tracker.Len()
		}
		if due && !res.Converged {
			if err := runSVD(); err != nil {
				return err
			}
		}

		if cfg.OnProgress != nil {
			cfg.OnProgress(Progress{
				Completed: res.MembersUsed,
				Failed:    res.MembersFailed,
				Cancelled: res.MembersCancelled,
				Target:    target,
				SVDRounds: res.SVDRounds,
				Converged: res.Converged,
				Rho:       res.Rho,
				Elapsed:   time.Since(start),
			})
		}

		// Out of budget, the pool stops by itself once the last member is
		// committed: the run uses what it has.
		if accounted < target || res.Converged || target >= cfg.MaxSize {
			return nil
		}
		target = growTarget(target, &cfg)
		gTarget.Set(float64(target))
		res.PoolSizes = append(res.PoolSizes, target)
		pool.Grow(target)
		return nil
	}

	// The pool commits members in index order whatever order they finish
	// in, so SVD round k sees the same members on every run.
	if _, err := pool.Run(runCtx, cfg.InitialSize); err != nil {
		return nil, err
	}

	// Final SVD if members were committed since the last one (drain
	// policy, deadline leftovers, or non-aligned batch boundary).
	if acc.Len() >= 2 && acc.Len() != tracker.Len() {
		if err := runSVD(); err != nil {
			return nil, err
		}
	}
	if res.SVDRounds == 0 {
		return nil, fmt.Errorf("workflow: only %d members completed; cannot form a subspace", acc.Len())
	}
	res.Mean = acc.EnsembleMean()
	res.Anomalies = acc.Anomalies()
	res.MemberIndices = acc.Indices()
	// The last round saw every committed member, so the final anomaly
	// matrix is the one its coefficients belong to; Subspace checks.
	_, sp := tel.SpanCtx(ctx, "workflow", "modes", -1, 0)
	var err error
	res.Subspace, err = tracker.Subspace(res.Anomalies)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("workflow: forming the modes: %w", err)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runWithRetries calls the runner at least once for every index it is
// given, so the members a Result accounts for are exactly the indices
// the runner saw; a runner handed a dead context returns its error.
func runWithRetries(ctx context.Context, retries, idx int, runner MemberRunner, tel *telemetry.Telemetry, cRetries *telemetry.Counter) ([]float64, error) {
	var err error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			tel.Emit("member", idx, attempt, telemetry.PhaseRetried)
			cRetries.Inc()
		}
		var state []float64
		state, err = runner(ctx, idx)
		if err == nil {
			return state, nil
		}
		if isCtxErr(err) {
			return nil, err
		}
	}
	return nil, err
}
