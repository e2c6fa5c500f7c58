package workflow

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"esse/internal/core"
	"esse/internal/covstore"
	"esse/internal/telemetry"
)

// TestCancelMidBatchCleanShutdown cancels the engine's context in the
// middle of a batch — after the first SVD round, with half the pool
// still blocked in the propagator — and asserts the shutdown contract:
// RunParallel returns (with the partial subspace), no worker or
// dispatcher goroutine leaks, every member that started ends its
// lifecycle in a terminal phase with at least one cancelled, and the
// covstore jobdir is left restartable (the published safe file is
// readable and a fresh run can pick the store back up). Run under -race
// this also sweeps the shutdown interleavings dynamically.
func TestCancelMidBatchCleanShutdown(t *testing.T) {
	before := runtime.NumGoroutine()

	truth := toySubspace(7, 40, 3)
	tel := telemetry.New()
	store, err := covstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	cfg := quickConfig()
	cfg.InitialSize = 12
	cfg.MaxSize = 12
	cfg.SVDBatch = 4
	cfg.Workers = 4
	cfg.Criterion = core.ConvergenceCriterion{MinSimilarity: 2, MaxVarianceChange: 0} // never converge
	cfg.Telemetry = tel
	cfg.Store = store

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fast := toyRunner(truth, 8, 0, 0, false)
	inFlight := make(chan struct{})
	var blockedOnce sync.Once
	runner := func(c context.Context, idx int) ([]float64, error) {
		if idx < 6 {
			return fast(c, idx)
		}
		// The back half of the pool blocks until cancellation, so the
		// cancel always lands mid-batch with workers in flight.
		blockedOnce.Do(func() { close(inFlight) })
		<-c.Done()
		return nil, c.Err()
	}
	// OnProgress runs on the coordinator after each completion; by the
	// time Completed reaches 4 the first SVD round (SVDBatch=4) has run
	// and its snapshot is published. The workers do not wait for the
	// coordinator, so one of them reaches a blocking member regardless.
	cancelled := false
	cfg.OnProgress = func(p Progress) {
		if !cancelled && p.Completed >= 4 {
			cancelled = true
			<-inFlight
			cancel()
		}
	}

	res, err := RunParallel(ctx, cfg, make([]float64, 40), runner)
	if err != nil {
		t.Fatalf("cancelled run must return the partial result, got error: %v", err)
	}
	if res.Converged {
		t.Fatal("run must not report convergence it never reached")
	}
	if res.MembersCancelled == 0 {
		t.Fatal("expected cancelled members, got none")
	}
	if res.Subspace == nil || res.Subspace.Rank() < 1 {
		t.Fatal("partial subspace missing")
	}

	// No leaked goroutines: the dispatcher, workers and telemetry spans
	// must all have unwound. Allow a little slack for runtime helpers.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutines leaked: %d before run, %d after shutdown", before, n)
	}

	// Every member that reached Running ends in a terminal phase, and at
	// least one ends cancelled.
	last := map[int]telemetry.Phase{}
	started := map[int]bool{}
	for _, e := range tel.Events().Snapshot(0) {
		if e.Task != "member" {
			continue
		}
		last[e.Index] = e.Phase
		if e.Phase == telemetry.PhaseRunning {
			started[e.Index] = true
		}
	}
	sawCancelled := false
	for idx := range started {
		switch last[idx] {
		case telemetry.PhaseDone, telemetry.PhaseFailed:
		case telemetry.PhaseCancelled:
			sawCancelled = true
		default:
			t.Errorf("member %d started but its lifecycle ends in phase %v, not a terminal one", idx, last[idx])
		}
	}
	if !sawCancelled {
		t.Fatal("no member lifecycle ends in cancelled")
	}

	// The jobdir is restartable: the safe file holds a readable snapshot
	// and a fresh run can reuse the same store.
	anoms, indices, ver, err := store.ReadSafe()
	if err != nil {
		t.Fatalf("safe file unreadable after cancellation: %v", err)
	}
	if ver < 1 || anoms == nil || len(indices) == 0 {
		t.Fatalf("safe snapshot incomplete: version=%d indices=%d", ver, len(indices))
	}
	res2, err := RunParallel(context.Background(), cfg, make([]float64, 40),
		toyRunner(truth, 9, 0, 0, false))
	if err != nil {
		t.Fatalf("restarted run on the same store failed: %v", err)
	}
	if res2.Subspace == nil {
		t.Fatal("restarted run produced no subspace")
	}
	if store.Version() <= ver {
		t.Fatalf("restarted run did not advance the store: version still %d", store.Version())
	}
}
