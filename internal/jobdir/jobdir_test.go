package jobdir

import (
	"bytes"
	"context"
	"errors"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"esse/internal/core"
	"esse/internal/linalg"
	"esse/internal/rng"
	"esse/internal/telemetry"
	"esse/internal/workflow"
)

func TestStatusLifecycle(t *testing.T) {
	tr, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, done, err := tr.Status(3); err != nil || done {
		t.Fatalf("fresh member reported done (err %v)", err)
	}
	if err := tr.Complete(3, 0); err != nil {
		t.Fatal(err)
	}
	code, done, err := tr.Status(3)
	if err != nil || !done || code != 0 {
		t.Fatalf("status = (%d,%v,%v)", code, done, err)
	}
	if err := tr.Complete(4, 17); err != nil {
		t.Fatal(err)
	}
	code, done, _ = tr.Status(4)
	if !done || code != 17 {
		t.Fatalf("failure code not preserved: %d", code)
	}
}

func TestStatusSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	tr, _ := Open(dir)
	_ = tr.Complete(7, 0)
	tr2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, done, _ := tr2.Status(7)
	if !done {
		t.Fatal("status lost across reopen")
	}
}

func TestCompletedScan(t *testing.T) {
	tr, _ := Open(t.TempDir())
	_ = tr.Complete(2, 0)
	_ = tr.Complete(0, 0)
	_ = tr.Complete(5, 3)
	ok, bad, err := tr.Completed()
	if err != nil {
		t.Fatal(err)
	}
	if len(ok) != 2 || ok[0] != 0 || ok[1] != 2 {
		t.Fatalf("successes = %v", ok)
	}
	if len(bad) != 1 || bad[0] != 5 {
		t.Fatalf("failures = %v", bad)
	}
}

func TestResetForcesRerun(t *testing.T) {
	tr, _ := Open(t.TempDir())
	_ = tr.Complete(1, 0)
	_ = tr.SaveState(1, []float64{1, 2})
	if err := tr.Reset(1); err != nil {
		t.Fatal(err)
	}
	if _, done, _ := tr.Status(1); done {
		t.Fatal("Reset did not clear status")
	}
	if state, err := tr.LoadState(1); state != nil || err != nil {
		t.Fatalf("Reset did not clear state: %v, %v", state, err)
	}
	if err := tr.Reset(999); err != nil {
		t.Fatal("Reset of unknown member must be a no-op, got", err)
	}
}

func TestStateRoundTrip(t *testing.T) {
	tr, _ := Open(t.TempDir())
	want := []float64{1.5, -2.25, 3.125, 0}
	if err := tr.SaveState(9, want); err != nil {
		t.Fatal(err)
	}
	got, err := tr.LoadState(9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("state[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestStateChecksumDetectsCorruption(t *testing.T) {
	tr, _ := Open(t.TempDir())
	_ = tr.SaveState(2, []float64{1, 2, 3})
	path := tr.statusPath(2)
	data, _ := os.ReadFile(path)
	data[10] ^= 0x55
	_ = os.WriteFile(path, data, 0o644)
	if _, err := tr.LoadState(2); err == nil {
		t.Fatal("corrupt state loaded silently")
	}
}

func TestConcurrentCompletes(t *testing.T) {
	tr, _ := Open(t.TempDir())
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := tr.Complete(i, 0); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	ok, _, _ := tr.Completed()
	if len(ok) != 64 {
		t.Fatalf("%d completions recorded", len(ok))
	}
}

// --- resume integration ----------------------------------------------------

func toyTruth(seed uint64, dim, p int) *core.Subspace {
	s := rng.New(seed)
	a := linalg.NewDense(dim, p)
	for i := range a.Data {
		a.Data[i] = s.Norm()
	}
	f := linalg.QR(a)
	sigma := make([]float64, p)
	for i := range sigma {
		sigma[i] = float64(p - i)
	}
	return &core.Subspace{Modes: f.Q, Sigma: sigma}
}

func countingRunner(truth *core.Subspace, seed uint64, counter *int64, mu *sync.Mutex, delay time.Duration) workflow.MemberRunner {
	master := rng.New(seed)
	return func(ctx context.Context, index int) ([]float64, error) {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		mu.Lock()
		*counter++
		mu.Unlock()
		return truth.Perturb(nil, master.Split(uint64(index)), 0.01), nil
	}
}

func TestResumableRunnerSkipsCompleted(t *testing.T) {
	tr, _ := Open(t.TempDir())
	truth := toyTruth(1, 20, 2)
	var calls int64
	var mu sync.Mutex
	runner := ResumableRunner(tr, countingRunner(truth, 2, &calls, &mu, 0))

	first, err := runner(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runner(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("inner runner called %d times, want 1", calls)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("resumed state differs from computed state")
		}
	}
}

// TestTrackedMemberIsOneFile runs one fresh member through
// ResumableRunner: it leaves one file, member_000005.status, made by one
// status write (one temp file, one rename), whose first line is the code
// and whose state follows.
func TestTrackedMemberIsOneFile(t *testing.T) {
	tr, _ := Open(t.TempDir())
	tr.Instrument(telemetry.New())
	var calls int64
	var mu sync.Mutex
	state, err := ResumableRunner(tr, countingRunner(toyTruth(1, 20, 2), 2, &calls, &mu, 0))(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(tr.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !slices.Equal(names, []string{"member_000005.status"}) {
		t.Fatalf("a tracked member left %v, want only its status file", names)
	}
	if n := tr.cCompletes.Value(); n != 1 {
		t.Fatalf("%d status writes for one member, want 1", n)
	}
	data, _ := os.ReadFile(tr.statusPath(5))
	if !bytes.HasPrefix(data, []byte("0\n")) || len(data) != 2+8+8*len(state)+8 {
		t.Fatalf("status file is %d bytes starting %q, want \"0\\n\" and a %d-value state", len(data), data[:min(len(data), 4)], len(state))
	}
}

func TestResumableRunnerRecordsFailures(t *testing.T) {
	tr, _ := Open(t.TempDir())
	failing := func(ctx context.Context, index int) ([]float64, error) {
		return nil, errors.New("boom")
	}
	if _, err := ResumableRunner(tr, failing)(context.Background(), 3); err == nil {
		t.Fatal("failure swallowed")
	}
	code, done, _ := tr.Status(3)
	if !done || code == 0 {
		t.Fatalf("failure not recorded: code=%d done=%v", code, done)
	}
	// A failed index is retried, not skipped.
	var calls int64
	var mu sync.Mutex
	truth := toyTruth(3, 10, 2)
	runner := ResumableRunner(tr, countingRunner(truth, 4, &calls, &mu, 0))
	if _, err := runner(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatal("failed member was not retried")
	}
}

func TestWorkflowRestartWithoutRerunningAll(t *testing.T) {
	// Kill a tracked run from inside its fifth member forecast, then
	// restart with a fresh tracker on the same directory: the restart
	// must forecast only members the first run did not finish, and —
	// with convergence and pool growth on — end bit-identical to a run
	// that was never interrupted.
	dir := t.TempDir()
	truth := toyTruth(5, 30, 2)
	cfg := workflow.DefaultConfig()
	cfg.InitialSize = 8
	cfg.MaxSize = 48
	cfg.Workers = 4
	cfg.SVDBatch = 5
	cfg.Criterion = core.ConvergenceCriterion{MinSimilarity: 0.90, MaxVarianceChange: 0.5}
	central := make([]float64, 30)

	// One forecast function for all three runs: a member's state depends
	// on its index alone.
	var mu sync.Mutex
	var calls int64
	forecast := countingRunner(truth, 6, &calls, &mu, 0)
	ref, err := workflow.RunParallel(context.Background(), cfg, central, forecast)
	if err != nil {
		t.Fatal(err)
	}
	const killAt = 5
	if !ref.Converged || ref.MembersUsed <= killAt {
		t.Fatalf("reference run must converge after the kill point: converged=%v used=%d", ref.Converged, ref.MembersUsed)
	}

	ctx, kill := context.WithCancel(context.Background())
	defer kill()
	var started atomic.Int64
	dying := func(ctx context.Context, index int) ([]float64, error) {
		if started.Add(1) >= killAt {
			kill() // the member being forecast dies with the run
			return nil, ctx.Err()
		}
		return forecast(ctx, index)
	}
	tr, _ := Open(dir)
	_, _ = workflow.RunParallel(ctx, cfg, central, ResumableRunner(tr, dying))
	done1, _, _ := tr.Completed()
	if len(done1) == 0 || len(done1) >= killAt {
		t.Fatalf("killed on forecast %d, yet %d members are on disk", killAt, len(done1))
	}

	tr2, _ := Open(dir)
	recomputed := map[int]int{}
	res, err := workflow.RunParallel(context.Background(), cfg, central,
		ResumableRunner(tr2, func(ctx context.Context, index int) ([]float64, error) {
			mu.Lock()
			recomputed[index]++
			mu.Unlock()
			return forecast(ctx, index)
		}))
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range done1 {
		if recomputed[idx] != 0 {
			t.Fatalf("member %d was on disk but forecast again", idx)
		}
	}
	for _, idx := range res.MemberIndices {
		if !slices.Contains(done1, idx) && recomputed[idx] != 1 {
			t.Fatalf("member %d was missing from disk and forecast %d times by the restart", idx, recomputed[idx])
		}
	}
	if !slices.Equal(res.MemberIndices, ref.MemberIndices) || res.SVDRounds != ref.SVDRounds {
		t.Fatalf("restart used members %v in %d rounds, uninterrupted run %v in %d",
			res.MemberIndices, res.SVDRounds, ref.MemberIndices, ref.SVDRounds)
	}
	if !slices.Equal(res.Subspace.Sigma, ref.Subspace.Sigma) ||
		!slices.Equal(res.Subspace.Modes.Data, ref.Subspace.Modes.Data) {
		t.Fatal("restarted subspace is not bit-identical to the uninterrupted run's")
	}
}

func TestStatusCorruptFile(t *testing.T) {
	tr, _ := Open(t.TempDir())
	if err := os.WriteFile(tr.statusPath(8), []byte("not-a-number\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Status(8); err == nil {
		t.Fatal("corrupt status file accepted")
	}
	// Completed must skip the corrupt entry rather than fail the scan.
	_ = tr.Complete(9, 0)
	ok, bad, err := tr.Completed()
	if err != nil {
		t.Fatal(err)
	}
	if len(ok) != 1 || ok[0] != 9 || len(bad) != 0 {
		t.Fatalf("scan with corrupt entry: ok=%v bad=%v", ok, bad)
	}
}

func TestCompletedIgnoresForeignFiles(t *testing.T) {
	tr, _ := Open(t.TempDir())
	_ = os.WriteFile(tr.Dir()+"/README", []byte("hi"), 0o644)
	_ = os.WriteFile(tr.Dir()+"/member_abc.status", []byte("0"), 0o644)
	_ = tr.Complete(1, 0)
	ok, bad, err := tr.Completed()
	if err != nil {
		t.Fatal(err)
	}
	if len(ok) != 1 || len(bad) != 0 {
		t.Fatalf("foreign files leaked into scan: ok=%v bad=%v", ok, bad)
	}
}

func TestLoadStateTruncated(t *testing.T) {
	tr, _ := Open(t.TempDir())
	_ = tr.SaveState(4, []float64{1, 2, 3})
	data, _ := os.ReadFile(tr.statusPath(4))
	_ = os.WriteFile(tr.statusPath(4), data[:10], 0o644)
	if _, err := tr.LoadState(4); err == nil {
		t.Fatal("truncated state accepted")
	}
	_ = os.WriteFile(tr.statusPath(4), data[:len(data)-4], 0o644)
	if _, err := tr.LoadState(4); err == nil {
		t.Fatal("short state accepted")
	}
}

func TestCompleteNegativeIndex(t *testing.T) {
	tr, _ := Open(t.TempDir())
	if err := tr.Complete(-1, 0); err == nil {
		t.Fatal("negative index accepted")
	}
}

func TestResumableRunnerRecomputesOnLostState(t *testing.T) {
	// The status says done but the state behind it vanished (pruned
	// shared dir): the runner must recompute instead of failing.
	tr, _ := Open(t.TempDir())
	truth := toyTruth(9, 10, 2)
	var calls int64
	var mu sync.Mutex
	runner := ResumableRunner(tr, countingRunner(truth, 10, &calls, &mu, 0))
	if _, err := runner(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tr.statusPath(2), int64(len("0\n"))); err != nil {
		t.Fatal(err)
	}
	if code, done, err := tr.Status(2); err != nil || !done || code != 0 {
		t.Fatalf("cut file reads (%d,%v,%v), want done with code 0", code, done, err)
	}
	if _, err := runner(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("runner called %d times, want recompute", calls)
	}
}

// Status returns the recorded exit code, reading the first line of the
// member's status file only; done is false if the member has not
// completed (no status file).
func (t *Tracker) Status(index int) (code int, done bool, err error) {
	code, _, done, err = t.read(index, false)
	return code, done, err
}

// Dir returns the tracking directory.
func (t *Tracker) Dir() string { return t.dir }
