package workflow

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"
	"time"
)

// faultRunner decorates a MemberRunner: member bad's state goes through
// fault, every other member is the inner runner's own, and every index
// the engine calls with is recorded.
type faultRunner struct {
	inner MemberRunner
	bad   int
	fault func(ctx context.Context, state []float64) ([]float64, error)

	mu   sync.Mutex
	seen map[int]bool
}

func (f *faultRunner) run(ctx context.Context, index int) ([]float64, error) {
	f.mu.Lock()
	f.seen[index] = true
	f.mu.Unlock()
	state, err := f.inner(ctx, index)
	if err != nil || index != f.bad {
		return state, err
	}
	return f.fault(ctx, state)
}

// distinct is the number of distinct indices the runner was called with.
func (f *faultRunner) distinct() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.seen)
}

// TestFaultyMemberOutcomes injects one faulty member into an otherwise
// healthy ensemble and pins what the run does with it today. Lost and
// retried members are TestRetriesRecoverTransientFailures' and
// TestDeadlineIgnoresLateMembers'.
func TestFaultyMemberOutcomes(t *testing.T) {
	const dim, bad, delay = 30, 3, time.Millisecond
	const deadline = 200 * time.Millisecond
	truth := toySubspace(21, dim, 2)
	var firstRound time.Duration // the run's Elapsed when its first SVD round was committed
	run := func(d time.Duration, fault func(context.Context, []float64) ([]float64, error)) (*Result, *faultRunner, error) {
		f := &faultRunner{inner: toyRunner(truth, 22, delay, 0, false), bad: bad, fault: fault, seen: map[int]bool{}}
		cfg := quickConfig()
		cfg.Deadline = d
		firstRound = 0
		cfg.OnProgress = func(p Progress) {
			if p.SVDRounds == 1 && firstRound == 0 {
				firstRound = p.Elapsed
			}
		}
		res, err := RunParallel(context.Background(), cfg, make([]float64, dim), f.run)
		return res, f, err
	}
	clean, _, err := run(0, func(_ context.Context, s []float64) ([]float64, error) { return s, nil })
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		deadline time.Duration // Config.Deadline; 0 is none
		fault    func(context.Context, []float64) ([]float64, error)
		check    func(t *testing.T, res *Result, err error)
	}{
		// Known defect of ROADMAP item 1a: one NaN member poisons the
		// Gram matrix, so no round converges, the pool grows to MaxSize
		// and the subspace is a single NaN mode. Item 1a flips this row.
		{"nan-state", 0, func(_ context.Context, s []float64) ([]float64, error) {
			s[5] = math.NaN()
			return s, nil
		}, func(t *testing.T, res *Result, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if res.Converged || res.MembersUsed != 48 || res.SVDRounds != 8 || !math.IsNaN(res.Rho) ||
				len(res.Subspace.Sigma) != 1 || !math.IsNaN(res.Subspace.Sigma[0]) {
				t.Fatalf("converged %v on %d members in %d rounds, rho %v, sigma %v; want the pinned poisoned run: not converged, 48 members, 8 rounds, rho NaN, sigma [NaN]",
					res.Converged, res.MembersUsed, res.SVDRounds, res.Rho, res.Subspace.Sigma)
			}
		}},
		// Known defect of ROADMAP item 1a: a state of the wrong length
		// aborts the whole run with no Result. Item 1a flips this row.
		{"wrong-length", 0, func(_ context.Context, s []float64) ([]float64, error) {
			return s[:10], nil
		}, func(t *testing.T, res *Result, err error) {
			if err == nil || err.Error() != "core: member 3 has dim 10, central has 30" || res != nil {
				t.Fatalf("result %v, error %v; want no result and the pinned dimension error", res, err)
			}
		}},
		// A member 10× the median is only late: the engine commits in
		// index order, so the subspace is the one without the delay.
		{"straggler", 0, func(ctx context.Context, s []float64) ([]float64, error) {
			select {
			case <-time.After(9 * delay):
				return s, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}, func(t *testing.T, res *Result, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if res.MembersUsed != clean.MembersUsed || !slices.Equal(res.Subspace.Sigma, clean.Subspace.Sigma) ||
				!slices.Equal(res.Subspace.Modes.Data, clean.Subspace.Modes.Data) {
				t.Fatalf("straggler run used %d members, sigma %v; the run without it used %d, sigma %v",
					res.MembersUsed, res.Subspace.Sigma, clean.MembersUsed, clean.Subspace.Sigma)
			}
		}},
		// Known defect of ROADMAP item 1b: a member hung until the
		// deadline holds every later member in the commit's reorder
		// buffer, so no SVD round runs before Tmax; at the deadline the
		// hung member is cancelled and members 4–11 are folded in after
		// it, two rounds past the hard deadline §4 sets. Item 1b flips
		// this row.
		{"hung-past-deadline", deadline, func(ctx context.Context, _ []float64) ([]float64, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}, func(t *testing.T, res *Result, err error) {
			if err != nil {
				t.Fatal(err)
			}
			want := []int{0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11}
			if res.MembersUsed != 11 || res.MembersCancelled != 1 || res.SVDRounds != 2 ||
				!slices.Equal(res.MemberIndices, want) {
				t.Fatalf("used %d, cancelled %d, %d rounds, members %v; want the pinned run: 11 used, 1 cancelled, 2 rounds, members %v",
					res.MembersUsed, res.MembersCancelled, res.SVDRounds, res.MemberIndices, want)
			}
			if firstRound < deadline {
				t.Fatalf("first SVD round at %v, before the %v deadline; want the pinned late fold", firstRound, deadline)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, f, err := run(c.deadline, c.fault)
			c.check(t, res, err)
			if res == nil {
				return
			}
			if got := res.MembersUsed + res.MembersFailed + res.MembersCancelled; got != f.distinct() {
				t.Fatalf("used %d + failed %d + cancelled %d = %d, but the runner saw %d distinct members",
					res.MembersUsed, res.MembersFailed, res.MembersCancelled, got, f.distinct())
			}
		})
	}
}
