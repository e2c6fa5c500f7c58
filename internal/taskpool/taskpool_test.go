package taskpool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"esse/internal/telemetry"
)

// TestCommitInIndexOrder makes later indices finish first and checks
// that Commit still sees 0, 1, 2, … on the caller's goroutine, with
// each index's phases in lifecycle order.
func TestCommitInIndexOrder(t *testing.T) {
	const total = 24
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var mu sync.Mutex
			phases := map[int][]telemetry.Phase{}
			var got []int
			p := &Pool[int]{
				Workers: workers,
				Task: func(_ context.Context, lane int64, i int) int {
					if lane < 1 || lane > int64(workers) {
						t.Errorf("index %d ran on lane %d", i, lane)
					}
					time.Sleep(time.Duration(total-i) * 200 * time.Microsecond)
					return 10 * i
				},
				Commit: func(i, r int) error {
					if r != 10*i {
						t.Errorf("index %d committed result %d", i, r)
					}
					got = append(got, i)
					return nil
				},
				Phase: func(i int, ph telemetry.Phase) {
					mu.Lock()
					phases[i] = append(phases[i], ph)
					mu.Unlock()
				},
			}
			n, err := p.Run(context.Background(), total)
			if err != nil || n != total {
				t.Fatalf("Run = %d, %v; want %d, nil", n, err, total)
			}
			for i := range got {
				if got[i] != i {
					t.Fatalf("commit order %v", got)
				}
			}
			want := []telemetry.Phase{telemetry.PhaseQueued, telemetry.PhaseDispatched, telemetry.PhaseRunning}
			for i := 0; i < total; i++ {
				if !slices.Equal(phases[i], want) {
					t.Fatalf("index %d phases %v, want %v", i, phases[i], want)
				}
			}
		})
	}
}

// TestEveryDispatchedIndexIsCommittedOnce grows the target from inside
// Commit and cancels the run part-way: the indices committed are
// exactly the ones Task ran, each once, and Run's count says how many.
func TestEveryDispatchedIndexIsCommittedOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, cancelAt := range []int{-1, 5, 17} {
			t.Run(fmt.Sprintf("workers=%d/cancelAt=%d", workers, cancelAt), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var mu sync.Mutex
				ran := map[int]int{}
				var committed []int
				p := &Pool[int]{Workers: workers}
				p.Task = func(ctx context.Context, _ int64, i int) int {
					mu.Lock()
					ran[i]++
					mu.Unlock()
					time.Sleep(100 * time.Microsecond)
					return i
				}
				p.Commit = func(i, _ int) error {
					committed = append(committed, i)
					if i == cancelAt {
						cancel()
					}
					if i == 7 || i == 15 { // the last index of targets 8 and 16
						p.Grow(i + 9)
					}
					return nil
				}
				n, err := p.Run(ctx, 8)
				if err != nil {
					t.Fatal(err)
				}
				if cancelAt < 0 && n != 24 {
					t.Fatalf("uncancelled run committed %d of the grown target 24", n)
				}
				if n != len(committed) || n != len(ran) {
					t.Fatalf("Run says %d, %d committed, %d ran", n, len(committed), len(ran))
				}
				for i, idx := range committed {
					if idx != i || ran[idx] != 1 {
						t.Fatalf("commit %d is index %d, which ran %d times", i, idx, ran[idx])
					}
				}
			})
		}
	}
}

// TestFailedCommitDrainsTheWorkers holds the property
// workflow's TestFailedSVDStageDrainsTheWorkers pins at the engine: when
// Commit fails while the workers are blocked on a full result buffer,
// Run returns that error and every goroutine it started exits.
func TestFailedCommitDrainsTheWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("boom")
	ran := make(chan struct{}, 100)
	p := &Pool[int]{
		Workers: 4,
		Task: func(ctx context.Context, _ int64, i int) int {
			ran <- struct{}{}
			return i
		},
		Commit: func(i, _ int) error {
			if i < 3 {
				return nil
			}
			// Until no task has finished for a while: the buffer is full
			// and the workers are blocked sending into it.
			for n := -1; n != len(ran); {
				n = len(ran)
				time.Sleep(20 * time.Millisecond)
			}
			return boom
		},
	}
	n, err := p.Run(context.Background(), 100)
	if !errors.Is(err, boom) || n != 3 {
		t.Fatalf("Run = %d, %v; want 3, %v", n, err, boom)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked: %d before the run, %d after it failed", before, g)
	}
}

// TestEmptyTarget returns at once with nothing committed.
func TestEmptyTarget(t *testing.T) {
	p := &Pool[int]{
		Task:   func(context.Context, int64, int) int { return 0 },
		Commit: func(int, int) error { return errors.New("nothing to commit") },
	}
	if n, err := p.Run(context.Background(), 0); n != 0 || err != nil {
		t.Fatalf("Run = %d, %v", n, err)
	}
}
