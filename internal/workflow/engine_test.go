package workflow

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"esse/internal/core"
	"esse/internal/covstore"
	"esse/internal/linalg"
	"esse/internal/rng"
	"esse/internal/telemetry"
)

// toySubspace builds a fixed orthonormal rank-p "true" error subspace.
func toySubspace(seed uint64, dim, p int) *core.Subspace {
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

// toyRunner returns a MemberRunner drawing members from a fixed true
// subspace, deterministically keyed by the member index. delay simulates
// forecast compute time; failEvery>0 makes every failEvery-th index fail
// permanently; failOnce makes first attempts fail but retries succeed.
func toyRunner(truth *core.Subspace, seed uint64, delay time.Duration, failEvery int, failOnce bool) MemberRunner {
	master := rng.New(seed)
	attempts := make(map[int]int)
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	return func(ctx context.Context, index int) ([]float64, error) {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		} else if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if failEvery > 0 && index%failEvery == 0 {
			return nil, fmt.Errorf("injected failure for member %d", index)
		}
		if failOnce {
			<-mu
			attempts[index]++
			first := attempts[index] == 1
			mu <- struct{}{}
			if first {
				return nil, fmt.Errorf("transient failure for member %d", index)
			}
		}
		st := master.Split(uint64(index))
		return truth.Perturb(nil, st, 0.01), nil
	}
}

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.InitialSize = 12
	cfg.MaxSize = 48
	cfg.SVDBatch = 6
	cfg.Workers = 4
	cfg.Criterion = core.ConvergenceCriterion{MinSimilarity: 0.90, MaxVarianceChange: 0.5}
	return cfg
}

// engines are the two entry points of the one coordinator loop; tests of
// behaviour both must have run once per entry.
var engines = []struct {
	name string
	run  func(context.Context, Config, []float64, MemberRunner) (*Result, error)
}{
	{"RunParallel", RunParallel},
	{"RunSerial", RunSerial},
}

func TestRunParallelProducesValidSubspace(t *testing.T) {
	truth := toySubspace(1, 60, 3)
	res, err := RunParallel(context.Background(), quickConfig(), make([]float64, 60),
		toyRunner(truth, 2, 0, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Subspace == nil || res.Subspace.Rank() < 1 {
		t.Fatal("no subspace produced")
	}
	if err := res.Subspace.Check(1e-7); err != nil {
		t.Fatal(err)
	}
	if res.MembersUsed < 2 {
		t.Fatalf("MembersUsed = %d", res.MembersUsed)
	}
	if res.Rho < 0 || res.Rho > 1+1e-9 {
		t.Fatalf("rho = %v outside [0,1]", res.Rho)
	}
	if len(res.Mean) != 60 || len(res.Central) != 60 {
		t.Fatal("mean/central missing")
	}
}

func TestRunParallelRecoversTrueSubspace(t *testing.T) {
	// With enough members, the estimated dominant subspace must capture
	// most of the true variance.
	truth := toySubspace(3, 80, 3)
	cfg := quickConfig()
	cfg.InitialSize = 60
	cfg.MaxSize = 60
	cfg.Criterion = core.ConvergenceCriterion{MinSimilarity: 2, MaxVarianceChange: 0} // never converge early
	res, err := RunParallel(context.Background(), cfg, make([]float64, 80),
		toyRunner(truth, 4, 0, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	est := res.Subspace.Truncate(3)
	rho := core.SimilarityCoefficient(est, truth)
	if rho < 0.85 {
		t.Fatalf("estimated subspace captures only %v of true variance", rho)
	}
}

func TestParallelMatchesSerialWhenExhaustive(t *testing.T) {
	// With convergence disabled, both cadences commit exactly the same
	// members in the same order. RunParallel folds them into the Gram
	// matrix a batch at a time over several SVD rounds, RunSerial in one
	// round, and the two must still give the same bits — with member
	// failures leaving gaps and with the rank capped as well.
	cases := []struct {
		name      string
		failEvery int
		tune      func(*Config)
	}{
		{"plain", 0, func(*Config) {}},
		{"failures, batch not dividing the pool", 7, func(c *Config) { c.SVDBatch = 3 }},
		{"rank cap and sigma cut", 0, func(c *Config) { c.MaxRank, c.SigmaRelTol = 4, 0.05 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			truth := toySubspace(5, 40, 2)
			cfg := quickConfig()
			cfg.InitialSize = 20
			cfg.MaxSize = 20
			cfg.Criterion = core.ConvergenceCriterion{MinSimilarity: 2}
			tc.tune(&cfg)
			runner := toyRunner(truth, 6, 0, tc.failEvery, false)
			par, err := RunParallel(context.Background(), cfg, make([]float64, 40), runner)
			if err != nil {
				t.Fatal(err)
			}
			ser, err := RunSerial(context.Background(), cfg, make([]float64, 40), runner)
			if err != nil {
				t.Fatal(err)
			}
			if par.SVDRounds < 3 || ser.SVDRounds != 1 {
				t.Fatalf("SVD rounds: parallel %d, serial %d; the test wants several against one", par.SVDRounds, ser.SVDRounds)
			}
			if par.MembersUsed != ser.MembersUsed {
				t.Fatalf("member counts differ: %d vs %d", par.MembersUsed, ser.MembersUsed)
			}
			if !slices.Equal(par.Subspace.Sigma, ser.Subspace.Sigma) {
				t.Fatalf("sigma differs: %v vs %v", par.Subspace.Sigma, ser.Subspace.Sigma)
			}
			if !slices.Equal(par.Subspace.Modes.Data, ser.Subspace.Modes.Data) {
				t.Fatal("parallel and serial modes differ")
			}
			if !slices.Equal(par.Mean, ser.Mean) {
				t.Fatal("ensemble means differ")
			}
		})
	}
}

func TestConvergenceCancelsRemainingMembers(t *testing.T) {
	truth := toySubspace(7, 30, 2)
	cfg := quickConfig()
	cfg.InitialSize = 200
	cfg.MaxSize = 200
	cfg.SVDBatch = 10
	cfg.Workers = 4
	cfg.Criterion = core.ConvergenceCriterion{MinSimilarity: 0.2, MaxVarianceChange: 0.9}
	res, err := RunParallel(context.Background(), cfg, make([]float64, 30),
		toyRunner(truth, 8, 2*time.Millisecond, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("loose criterion did not converge")
	}
	if res.MembersUsed >= 200 {
		t.Fatal("convergence did not stop the ensemble early")
	}
}

func TestDrainAndUsePolicy(t *testing.T) {
	truth := toySubspace(9, 30, 2)
	cfg := quickConfig()
	cfg.InitialSize = 100
	cfg.MaxSize = 100
	cfg.SVDBatch = 10
	cfg.Policy = DrainAndUse
	cfg.Criterion = core.ConvergenceCriterion{MinSimilarity: 0.2, MaxVarianceChange: 0.9}
	res, err := RunParallel(context.Background(), cfg, make([]float64, 30),
		toyRunner(truth, 10, time.Millisecond, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	// Drain policy never cancels running members.
	if res.MembersCancelled != 0 {
		t.Fatalf("drain policy cancelled %d members", res.MembersCancelled)
	}
}

func TestFailureTolerance(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			truth := toySubspace(11, 30, 2)
			cfg := quickConfig()
			cfg.Retries = 0
			cfg.Criterion = core.ConvergenceCriterion{MinSimilarity: 2}
			res, err := e.run(context.Background(), cfg, make([]float64, 30),
				toyRunner(truth, 12, 0, 5, false)) // every 5th member fails
			if err != nil {
				t.Fatal(err)
			}
			if res.MembersFailed == 0 {
				t.Fatal("no failures recorded despite injection")
			}
			if res.Subspace == nil {
				t.Fatal("failures must not prevent a result")
			}
			if res.MembersUsed+res.MembersFailed < cfg.MaxSize {
				t.Fatalf("accounted members %d < target %d",
					res.MembersUsed+res.MembersFailed, cfg.MaxSize)
			}
		})
	}
}

func TestRetriesRecoverTransientFailures(t *testing.T) {
	truth := toySubspace(13, 30, 2)
	cfg := quickConfig()
	cfg.InitialSize = 8
	cfg.MaxSize = 8
	cfg.Retries = 2
	cfg.Criterion = core.ConvergenceCriterion{MinSimilarity: 2}
	res, err := RunParallel(context.Background(), cfg, make([]float64, 30),
		toyRunner(truth, 14, 0, 0, true)) // first attempt always fails
	if err != nil {
		t.Fatal(err)
	}
	if res.MembersFailed != 0 {
		t.Fatalf("%d members failed despite retries", res.MembersFailed)
	}
	if res.MembersUsed != 8 {
		t.Fatalf("MembersUsed = %d, want 8", res.MembersUsed)
	}
}

func TestDeadlineIgnoresLateMembers(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			truth := toySubspace(15, 30, 2)
			cfg := quickConfig()
			cfg.InitialSize = 400
			cfg.MaxSize = 400
			cfg.SVDBatch = 2
			cfg.Workers = 4
			cfg.Deadline = 60 * time.Millisecond
			cfg.Criterion = core.ConvergenceCriterion{MinSimilarity: 2}
			res, err := e.run(context.Background(), cfg, make([]float64, 30),
				toyRunner(truth, 16, 5*time.Millisecond, 0, false))
			if err != nil {
				t.Fatal(err)
			}
			if res.MembersUsed >= 400 {
				t.Fatal("deadline did not cut the ensemble short")
			}
			// Members still in flight at the deadline are either cancelled or —
			// if their select races the timer — delivered; both are legitimate
			// ("runs that have not finished by the forecast deadline can be
			// safely ignored"). What must hold: nothing beyond the in-flight
			// window was processed, and a usable subspace came out.
			if res.MembersUsed+res.MembersCancelled > 400 {
				t.Fatalf("accounting overflow: used %d + cancelled %d",
					res.MembersUsed, res.MembersCancelled)
			}
			if res.Subspace == nil {
				t.Fatal("partial ensemble must still yield a subspace")
			}
			if res.Elapsed > 10*cfg.Deadline {
				t.Fatalf("run overshot the deadline grossly: %v", res.Elapsed)
			}
		})
	}
}

func TestPoolGrowth(t *testing.T) {
	truth := toySubspace(17, 30, 2)
	cfg := quickConfig()
	cfg.InitialSize = 8
	cfg.MaxSize = 32
	cfg.GrowthFactor = 2
	cfg.Criterion = core.ConvergenceCriterion{MinSimilarity: 2} // force growth to the cap
	res, err := RunParallel(context.Background(), cfg, make([]float64, 30),
		toyRunner(truth, 18, 0, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{8, 16, 32}
	if len(res.PoolSizes) != len(want) {
		t.Fatalf("PoolSizes = %v, want %v", res.PoolSizes, want)
	}
	for i := range want {
		if res.PoolSizes[i] != want[i] {
			t.Fatalf("PoolSizes = %v, want %v", res.PoolSizes, want)
		}
	}
	if res.MembersUsed != 32 {
		t.Fatalf("MembersUsed = %d, want 32", res.MembersUsed)
	}
}

func TestGrowTarget(t *testing.T) {
	cfg := Config{GrowthFactor: 1.5, MaxSize: 100}
	if g := growTarget(10, &cfg); g != 15 {
		t.Fatalf("growTarget(10) = %d", g)
	}
	if g := growTarget(99, &cfg); g != 100 {
		t.Fatalf("growTarget(99) = %d, want cap", g)
	}
	cfg.GrowthFactor = 1
	if g := growTarget(10, &cfg); g != 11 {
		t.Fatalf("growTarget must always make progress, got %d", g)
	}
}

func TestTripleFileStoreIntegration(t *testing.T) {
	truth := toySubspace(19, 40, 2)
	store, err := covstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.Store = store
	cfg.Criterion = core.ConvergenceCriterion{MinSimilarity: 2}
	cfg.InitialSize = 16
	cfg.MaxSize = 16
	res, err := RunParallel(context.Background(), cfg, make([]float64, 40),
		toyRunner(truth, 20, 0, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	if store.Writes() == 0 {
		t.Fatal("diff stage never published through the store")
	}
	// Same run without the store must produce the same subspace.
	cfg.Store = nil
	res2, err := RunParallel(context.Background(), cfg, make([]float64, 40),
		toyRunner(truth, 20, 0, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Subspace.Sigma, res2.Subspace.Sigma) || !slices.Equal(res.Subspace.Modes.Data, res2.Subspace.Modes.Data) {
		t.Fatal("store round trip changed the subspace")
	}
	if res.Rho != res2.Rho || res.SVDRounds != res2.SVDRounds {
		t.Fatalf("store round trip changed the rounds: rho %v in %d rounds, without the store %v in %d",
			res.Rho, res.SVDRounds, res2.Rho, res2.SVDRounds)
	}
}

// TestStoreLogHoldsEachMemberOnce pins what a round moves through the
// store: the diff stage appends only the members new since the last
// round, so a run's column log ends with exactly the members it used,
// once each, in its own generation; the next run on the same store
// starts another, and the older log goes.
func TestStoreLogHoldsEachMemberOnce(t *testing.T) {
	truth := toySubspace(19, 40, 2)
	store, err := covstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.Store = store
	cfg.Criterion = core.ConvergenceCriterion{MinSimilarity: 2}
	cfg.InitialSize, cfg.MaxSize = 16, 16
	for run := 1; run <= 2; run++ {
		res, err := RunParallel(context.Background(), cfg, make([]float64, 40), toyRunner(truth, uint64(20+run), 0, 0, false))
		if err != nil {
			t.Fatal(err)
		}
		if res.SVDRounds < 2 {
			t.Fatalf("run %d: %d SVD rounds; the pin needs more than one", run, res.SVDRounds)
		}
		logs, err := filepath.Glob(filepath.Join(store.Dir(), "cols_*.dat"))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("cols_%d.dat", run); len(logs) != 1 || filepath.Base(logs[0]) != want {
			t.Fatalf("run %d: logs %v, want only %s", run, logs, want)
		}
		info, err := os.Stat(logs[0])
		if err != nil {
			t.Fatal(err)
		}
		if cols := info.Size() / (8 * 40); cols != int64(res.MembersUsed) || info.Size()%(8*40) != 0 {
			t.Fatalf("run %d: the log holds %d bytes, %d columns; the run used %d members", run, info.Size(), cols, res.MembersUsed)
		}
		snap, err := store.Read(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(snap.Indices, res.MemberIndices) {
			t.Fatalf("run %d: the store names members %v, the run used %v", run, snap.Indices, res.MemberIndices)
		}
	}
}

func TestParallelTimelineOverlaps(t *testing.T) {
	truth := toySubspace(21, 30, 2)
	cfg := quickConfig()
	cfg.InitialSize = 16
	cfg.MaxSize = 16
	cfg.Workers = 8
	cfg.Criterion = core.ConvergenceCriterion{MinSimilarity: 2}
	runner := toyRunner(truth, 22, 3*time.Millisecond, 0, false)
	cfg.Telemetry = telemetry.New()
	if _, err := RunParallel(context.Background(), cfg, make([]float64, 30), runner); err != nil {
		t.Fatal(err)
	}
	if !MembersOverlap(cfg.Telemetry.Tracer().ChromeEvents()) {
		t.Fatal("parallel run shows no overlapping member executions")
	}
	cfg.Telemetry = telemetry.New()
	if _, err := RunSerial(context.Background(), cfg, make([]float64, 30), runner); err != nil {
		t.Fatal(err)
	}
	if MembersOverlap(cfg.Telemetry.Tracer().ChromeEvents()) {
		t.Fatal("serial run shows overlapping member executions")
	}
}

func TestMembersOverlap(t *testing.T) {
	member := func(name string, ts, dur float64) telemetry.ChromeEvent {
		return telemetry.ChromeEvent{Name: name, Cat: "workflow", Ph: "X", Ts: ts, Dur: dur}
	}
	serial := []telemetry.ChromeEvent{member("member-1", 1, 1), member("member-0", 0, 1)}
	if MembersOverlap(serial) {
		t.Fatal("back-to-back member spans reported as overlapping")
	}
	parallel := []telemetry.ChromeEvent{member("member-0", 0, 2), member("member-1", 1, 2)}
	if !MembersOverlap(parallel) {
		t.Fatal("overlapping member spans not detected")
	}
	// Only workflow/member-* complete events count.
	others := []telemetry.ChromeEvent{
		member("member-0", 0, 2),
		{Name: "svd", Cat: "workflow", Ph: "X", Ts: 1, Dur: 2},
		{Name: "member-1", Cat: "esse", Ph: "X", Ts: 1, Dur: 2},
	}
	if MembersOverlap(others) {
		t.Fatal("non-member spans counted as overlapping members")
	}
}

func TestParallelFasterThanSerial(t *testing.T) {
	// The headline claim of the MTC transformation: with W workers and
	// per-member cost d, wall-clock drops ~W-fold.
	truth := toySubspace(23, 30, 2)
	cfg := quickConfig()
	cfg.InitialSize = 24
	cfg.MaxSize = 24
	cfg.Workers = 8
	cfg.Criterion = core.ConvergenceCriterion{MinSimilarity: 2}
	runner := toyRunner(truth, 24, 4*time.Millisecond, 0, false)
	par, err := RunParallel(context.Background(), cfg, make([]float64, 30), runner)
	if err != nil {
		t.Fatal(err)
	}
	ser, err := RunSerial(context.Background(), cfg, make([]float64, 30), runner)
	if err != nil {
		t.Fatal(err)
	}
	if par.Elapsed >= ser.Elapsed {
		t.Fatalf("parallel (%v) not faster than serial (%v)", par.Elapsed, ser.Elapsed)
	}
}

func TestConfigValidation(t *testing.T) {
	base := quickConfig()
	cases := []func(*Config){
		func(c *Config) { c.InitialSize = 1 },
		func(c *Config) { c.MaxSize = c.InitialSize - 1 },
		func(c *Config) { c.GrowthFactor = 0.5 },
		func(c *Config) { c.Workers = 0 },
		func(c *Config) { c.SVDBatch = 0 },
	}
	for _, e := range engines {
		for i, mutate := range cases {
			cfg := base
			mutate(&cfg)
			if _, err := e.run(context.Background(), cfg, make([]float64, 10), nil); err == nil {
				t.Fatalf("%s case %d: invalid config accepted", e.name, i)
			}
		}
	}
}

func TestAllMembersFailing(t *testing.T) {
	cfg := quickConfig()
	cfg.Retries = 0
	cfg.InitialSize = 4
	cfg.MaxSize = 4
	runner := func(ctx context.Context, index int) ([]float64, error) {
		return nil, errors.New("hardware gremlin")
	}
	for _, e := range engines {
		if _, err := e.run(context.Background(), cfg, make([]float64, 10), runner); err == nil {
			t.Fatalf("%s: total failure must surface an error", e.name)
		}
	}
}

func TestExternalCancellation(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			truth := toySubspace(25, 30, 2)
			cfg := quickConfig()
			cfg.InitialSize = 100
			cfg.MaxSize = 100
			cfg.Criterion = core.ConvergenceCriterion{MinSimilarity: 2}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(30 * time.Millisecond)
				cancel()
			}()
			res, err := e.run(ctx, cfg, make([]float64, 30),
				toyRunner(truth, 26, 2*time.Millisecond, 0, false))
			// Either a partial result or a clean error is acceptable; a hang is not.
			if err == nil && res.MembersUsed >= 100 {
				t.Fatal("cancellation had no effect")
			}
		})
	}
}

func TestSerialGrowthRestartsFromN(t *testing.T) {
	// The Fig. 3 loop "restarts for the ensemble members N+1 to N2":
	// indices must not be recomputed.
	truth := toySubspace(27, 30, 2)
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	seen := map[int]int{}
	inner := toyRunner(truth, 28, 0, 0, false)
	runner := func(ctx context.Context, index int) ([]float64, error) {
		<-mu
		seen[index]++
		mu <- struct{}{}
		return inner(ctx, index)
	}
	cfg := quickConfig()
	cfg.InitialSize = 8
	cfg.MaxSize = 32
	cfg.GrowthFactor = 2
	cfg.Criterion = core.ConvergenceCriterion{MinSimilarity: 2}
	res, err := RunSerial(context.Background(), cfg, make([]float64, 30), runner)
	if err != nil {
		t.Fatal(err)
	}
	// What still sets Fig. 3 apart: one SVD per pool, at its boundary.
	if res.SVDRounds != len(res.PoolSizes) {
		t.Fatalf("%d SVD rounds over pools %v, want one per pool", res.SVDRounds, res.PoolSizes)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("member %d computed %d times", idx, n)
		}
	}
	if len(seen) != 32 {
		t.Fatalf("computed %d distinct members, want 32", len(seen))
	}
}

func TestResultAnomalyBookkeeping(t *testing.T) {
	// Result.Anomalies columns must align with Result.MemberIndices and
	// reproduce member − central for every used member.
	truth := toySubspace(31, 25, 2)
	cfg := quickConfig()
	cfg.InitialSize = 10
	cfg.MaxSize = 10
	cfg.Criterion = core.ConvergenceCriterion{MinSimilarity: 2}
	runner := toyRunner(truth, 32, 0, 0, false)
	central := make([]float64, 25)
	res, err := RunParallel(context.Background(), cfg, central, runner)
	if err != nil {
		t.Fatal(err)
	}
	if res.Anomalies == nil || res.Anomalies.Cols != res.MembersUsed {
		t.Fatalf("anomaly matrix missing or wrong width")
	}
	if len(res.MemberIndices) != res.MembersUsed {
		t.Fatalf("%d indices for %d members", len(res.MemberIndices), res.MembersUsed)
	}
	for col, idx := range res.MemberIndices {
		want, err := runner(context.Background(), idx)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 25; i++ {
			if math.Abs(res.Anomalies.At(i, col)-want[i]) > 1e-12 {
				t.Fatalf("anomaly column %d does not match member %d", col, idx)
			}
		}
	}
}
