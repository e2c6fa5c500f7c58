package workflow

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"esse/internal/core"
	"esse/internal/covstore"
	"esse/internal/telemetry"
)

// TestSchedulingIndependence pins that a run with convergence, pool
// growth and cancellation on is a pure function of (config, runner):
// worker count, completion order and telemetry must not change a bit of
// the result, because members are committed in index order and members
// that finish after the converging SVD are discarded. The reverse-index
// runner makes later members finish first and, like the ocean model,
// cannot be interrupted mid-run, so members in flight at convergence
// come back successful.
func TestSchedulingIndependence(t *testing.T) {
	const dim = 60
	truth := toySubspace(1, dim, 3)
	reverse := func(cfg Config) MemberRunner {
		inner := toyRunner(truth, 2, 0, 0, false)
		return func(ctx context.Context, index int) ([]float64, error) {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			time.Sleep(time.Duration(cfg.MaxSize-index) * 100 * time.Microsecond)
			return inner(context.Background(), index)
		}
	}
	run := func(workers int, tel *telemetry.Telemetry, delayed bool) *Result {
		cfg := quickConfig()
		cfg.InitialSize = 8
		cfg.SVDBatch = 5
		cfg.Workers = workers
		cfg.Telemetry = tel
		runner := toyRunner(truth, 2, 0, 0, false)
		if delayed {
			runner = reverse(cfg)
		}
		res, err := RunParallel(context.Background(), cfg, make([]float64, dim), runner)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// The pin needs a run that grows its pool and then converges inside
	// a pool, so that several workers have members in flight beyond the
	// converging SVD.
	ref := run(1, nil, false)
	pools := ref.PoolSizes
	if !ref.Converged || len(pools) < 2 || ref.MembersUsed >= pools[len(pools)-1] {
		t.Fatalf("reference run pins nothing: converged=%v used=%d pools=%v", ref.Converged, ref.MembersUsed, pools)
	}
	for _, workers := range []int{1, 2, 8} {
		for _, telOn := range []bool{false, true} {
			for _, delayed := range []bool{false, true} {
				t.Run(fmt.Sprintf("workers=%d/telemetry=%v/reverse=%v", workers, telOn, delayed), func(t *testing.T) {
					var tel *telemetry.Telemetry
					if telOn {
						tel = telemetry.New()
					}
					got := run(workers, tel, delayed)
					if got.MembersUsed != ref.MembersUsed || got.SVDRounds != ref.SVDRounds {
						t.Fatalf("used %d members in %d SVD rounds, reference %d in %d",
							got.MembersUsed, got.SVDRounds, ref.MembersUsed, ref.SVDRounds)
					}
					if !slices.Equal(got.PoolSizes, ref.PoolSizes) {
						t.Fatalf("PoolSizes = %v, reference %v", got.PoolSizes, ref.PoolSizes)
					}
					if !slices.Equal(got.MemberIndices, ref.MemberIndices) {
						t.Fatalf("MemberIndices = %v, reference %v", got.MemberIndices, ref.MemberIndices)
					}
					if !slices.Equal(got.Subspace.Sigma, ref.Subspace.Sigma) {
						t.Fatalf("Sigma = %v, reference %v", got.Subspace.Sigma, ref.Subspace.Sigma)
					}
					if !slices.Equal(got.Subspace.Modes.Data, ref.Subspace.Modes.Data) {
						t.Fatal("Modes differ from the reference bit for bit")
					}
					if !slices.Equal(got.Mean, ref.Mean) {
						t.Fatal("Mean differs from the reference bit for bit")
					}
				})
			}
		}
	}
}

// TestEveryLaunchedMemberIsAccountedFor pins the one definition of the
// three outcome counters: used + failed + cancelled is the number of
// distinct indices the runner was called with, however the run ended.
func TestEveryLaunchedMemberIsAccountedFor(t *testing.T) {
	loose := core.ConvergenceCriterion{MinSimilarity: 0.2, MaxVarianceChange: 0.9}
	never := core.ConvergenceCriterion{MinSimilarity: 2}
	scenarios := []struct {
		name     string
		cancelAt int // the runner cancels the run when called with this many distinct indices (0: never)
		setup    func(cfg *Config)
	}{
		{"deadline", 0, func(cfg *Config) {
			cfg.Criterion = never
			cfg.Deadline = 40 * time.Millisecond
		}},
		// Cancelled by member count, not by a timer: a clock cannot
		// promise that the failing members 0 and 7 ran before it fired.
		{"external-cancel", 15, func(cfg *Config) {
			cfg.Criterion = never
		}},
		{"converged/CancelImmediately", 0, func(cfg *Config) {
			cfg.Criterion = loose
			cfg.Policy = CancelImmediately
		}},
		{"converged/DrainAndUse", 0, func(cfg *Config) {
			cfg.Criterion = loose
			cfg.Policy = DrainAndUse
		}},
	}
	for _, e := range engines {
		for _, sc := range scenarios {
			t.Run(e.name+"/"+sc.name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cfg := quickConfig()
				cfg.InitialSize = 20
				cfg.MaxSize = 300
				cfg.SVDBatch = 10
				cfg.Retries = 0
				sc.setup(&cfg)

				var mu sync.Mutex
				called := map[int]bool{}
				inner := toyRunner(toySubspace(7, 30, 2), 8, 2*time.Millisecond, 7, false) // every 7th member fails
				runner := func(ctx context.Context, index int) ([]float64, error) {
					mu.Lock()
					called[index] = true
					if len(called) == sc.cancelAt {
						cancel()
					}
					mu.Unlock()
					return inner(ctx, index)
				}
				// At convergence under CancelImmediately the result is final:
				// no later member is used and no further SVD runs.
				var atConvergence *Progress
				cfg.OnProgress = func(p Progress) {
					if p.Converged && atConvergence == nil {
						atConvergence = &p
					}
				}

				res, err := e.run(ctx, cfg, make([]float64, 30), runner)
				if err != nil {
					t.Fatal(err)
				}
				if got := res.MembersUsed + res.MembersFailed + res.MembersCancelled; got != len(called) {
					t.Fatalf("used %d + failed %d + cancelled %d = %d, but the runner saw %d distinct members",
						res.MembersUsed, res.MembersFailed, res.MembersCancelled, got, len(called))
				}
				if res.MembersFailed == 0 {
					t.Fatal("injected failures were not counted")
				}
				if cfg.Criterion == loose && !res.Converged {
					t.Fatal("loose criterion did not converge")
				}
				if res.Converged && cfg.Policy == CancelImmediately {
					if res.MembersUsed != atConvergence.Completed || res.SVDRounds != atConvergence.SVDRounds {
						t.Fatalf("after converging on %d members in %d rounds the run went on to %d members in %d rounds",
							atConvergence.Completed, atConvergence.SVDRounds, res.MembersUsed, res.SVDRounds)
					}
				}
			})
		}
	}
}

// TestFailedSVDStageDrainsTheWorkers pins the error path of the commit
// loop: when the SVD stage fails mid-ensemble the run returns that
// error and every worker still exits. A coordinator that returns from
// the loop without draining results passes every other test, `-race`
// and the analyzers, and strands each worker blocked on its send. The
// store's directory is removed while the second batch is being
// committed, so the second snapshot cannot be published; the
// coordinator is held in OnProgress until the workers have filled the
// result buffer and stalled behind it, which is the state a slow SVD
// round leaves them in.
func TestFailedSVDStageDrainsTheWorkers(t *testing.T) {
	before := runtime.NumGoroutine()

	dir := t.TempDir()
	store, err := covstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.InitialSize = 48
	cfg.MaxSize = 48
	cfg.SVDBatch = 4
	cfg.Workers = 4
	cfg.Criterion = core.ConvergenceCriterion{MinSimilarity: 2, MaxVarianceChange: 0} // never converge
	cfg.Store = store

	// Members past the first dozen wait for the coordinator to reach the
	// commit before the failing round, so however the early members are
	// scheduled most of the ensemble is still to run at that point.
	var ran atomic.Int64
	gate := make(chan struct{})
	inner := toyRunner(toySubspace(7, 40, 3), 8, 0, 0, false)
	runner := func(ctx context.Context, index int) ([]float64, error) {
		if index >= 12 {
			select {
			case <-gate:
			case <-ctx.Done():
			}
		}
		defer ran.Add(1)
		return inner(ctx, index)
	}
	cfg.OnProgress = func(p Progress) {
		if p.Completed != 2*cfg.SVDBatch-1 {
			return
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Error(err)
		}
		close(gate)
		// Until no member has finished for a while: the buffer is full
		// and the workers are blocked sending into it.
		deadline := time.Now().Add(2 * time.Second)
		for n := int64(-1); n != ran.Load() && time.Now().Before(deadline); {
			n = ran.Load()
			time.Sleep(20 * time.Millisecond)
		}
	}

	_, err = RunParallel(context.Background(), cfg, make([]float64, 40), runner)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want the failed snapshot publish", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutines leaked: %d before the run, %d after it failed", before, n)
	}
}
