package acoustics

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"esse/internal/telemetry"
)

// ClimateSpec enumerates the "acoustic climate" workload: TL for every
// combination of vertical slice, source depth and frequency in a region
// — "running multiple independent tasks for different sources/
// frequencies/slices at different times". The combinatorial product is
// what produced the paper's 6000+ short acoustics jobs.
type ClimateSpec struct {
	Sections     []*Section
	SourceDepths []float64
	FreqsKHz     []float64
	Base         TLConfig
	Workers      int
	// Telemetry, when non-nil, receives per-task lifecycle events and
	// TL task metrics. The nil default is a no-op on every hot path.
	Telemetry *telemetry.Telemetry
}

// taskID flattens a ClimateTask into the linear index used for
// lifecycle events and trace span names.
func (s *ClimateSpec) taskID(t ClimateTask) int {
	return (t.Slice*len(s.SourceDepths)+t.Source)*len(s.FreqsKHz) + t.Freq
}

// TaskCount returns the total number of independent TL tasks.
func (s *ClimateSpec) TaskCount() int {
	return len(s.Sections) * len(s.SourceDepths) * len(s.FreqsKHz)
}

// ClimateTask identifies one TL computation in the climate product.
type ClimateTask struct {
	Slice, Source, Freq int
}

// ClimateTaskResult is the per-task summary kept by the climate run
// (full fields are delivered through the optional sink to bound memory).
type ClimateTaskResult struct {
	Task   ClimateTask
	MeanTL float64
	// Elapsed is the worker's time in this task. The tasks of one
	// (slice, source) pair share a ray trace, which the first of them
	// carries; the others cost a dB conversion each.
	Elapsed time.Duration
}

// ClimateResult summarizes an acoustic-climate computation.
type ClimateResult struct {
	Tasks     []ClimateTaskResult
	Failed    int
	Cancelled int
	Elapsed   time.Duration
}

// fan is the dispatch unit of a climate: the tasks of one (slice, source)
// pair, one per frequency. They trace the same rays — frequency enters a
// TL solve only in the dB conversion — so one worker traces once and
// levels the deposit for each frequency.
type fan struct {
	slice, source int
}

// ComputeClimate runs the full task product on a worker pool. If sink is
// non-nil it receives every completed field (from multiple goroutines).
// Every task ends in exactly one of Tasks, Failed and Cancelled, also
// when ctx is cancelled mid-run.
func ComputeClimate(ctx context.Context, spec ClimateSpec, sink func(ClimateTask, *TLField)) (*ClimateResult, error) {
	if spec.TaskCount() == 0 {
		return nil, fmt.Errorf("acoustics: empty climate specification")
	}
	workers := spec.Workers
	if workers < 1 {
		workers = 1
	}
	start := time.Now()

	// Metric registration allocates, so it happens before any task loop
	// runs; the handles are nil no-ops when telemetry is disabled.
	tel := spec.Telemetry
	cTasksDone := tel.Counter("esse_acoustics_tasks_total", "Acoustic climate TL tasks by final outcome.", "outcome", "done")
	cTasksFailed := tel.Counter("esse_acoustics_tasks_total", "Acoustic climate TL tasks by final outcome.", "outcome", "failed")
	cTasksCancelled := tel.Counter("esse_acoustics_tasks_total", "Acoustic climate TL tasks by final outcome.", "outcome", "cancelled")
	hTaskSec := tel.Histogram("esse_acoustics_task_seconds", "Wall-clock duration of one TL computation.", nil)

	// The pool span adopts whatever parent rides in on ctx (an ocean
	// cycle, an HTTP request) and every TL task parents under it.
	ctx, poolSpan := tel.SpanCtx(ctx, "acoustics", "climate", -1, 0)
	defer poolSpan.End()

	res := &ClimateResult{Tasks: make([]ClimateTaskResult, 0, spec.TaskCount())}
	var mu sync.Mutex
	cancelTask := func(id int) {
		tel.Emit("climate", id, 0, telemetry.PhaseCancelled)
		cTasksCancelled.Inc()
		mu.Lock()
		res.Cancelled++
		mu.Unlock()
	}

	fans := make(chan fan)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		lane := int64(w + 1)
		go func() {
			defer wg.Done()
			// One solver per worker amortizes the TL grids across fans.
			var solver TLSolver
			for f := range fans {
				cfg := spec.Base
				cfg.SourceDepth = spec.SourceDepths[f.source]
				traced := false
				var err error
				for fi, freq := range spec.FreqsKHz {
					task := ClimateTask{Slice: f.slice, Source: f.source, Freq: fi}
					id := spec.taskID(task)
					// Emitted by the receiving worker so queued < dispatched <
					// running is ordered per task, not racing the dispatcher.
					tel.Emit("climate", id, 0, telemetry.PhaseDispatched)
					if ctx.Err() != nil {
						cancelTask(id)
						continue
					}
					tel.Emit("climate", id, 0, telemetry.PhaseRunning)
					_, sp := tel.SpanCtx(ctx, "acoustics", "tl-task", int64(id), lane)
					t0 := time.Now()
					// The first task of a fan carries the trace in its span
					// and Elapsed, so the sum of Elapsed stays the pool's
					// busy time; a failed trace fails every task of the fan.
					if !traced {
						err = solver.Trace(spec.Sections[f.slice], cfg)
						traced = true
					}
					var field *TLField
					if err == nil {
						field = solver.Field(freq)
						if sink != nil {
							field = field.clone() // the sink retains it
						}
					}
					sp.End()
					elapsed := time.Since(t0)
					hTaskSec.Observe(elapsed.Seconds())
					if err != nil {
						tel.Emit("climate", id, 0, telemetry.PhaseFailed)
						cTasksFailed.Inc()
						mu.Lock()
						res.Failed++
						mu.Unlock()
						continue
					}
					tel.Emit("climate", id, 0, telemetry.PhaseDone)
					cTasksDone.Inc()
					if sink != nil {
						sink(task, field)
					}
					mean := 0.0
					for _, v := range field.TL.Data {
						mean += v
					}
					mean /= float64(len(field.TL.Data))
					mu.Lock()
					res.Tasks = append(res.Tasks, ClimateTaskResult{Task: task, MeanTL: mean, Elapsed: elapsed})
					mu.Unlock()
				}
			}
		}()
	}
	// Dispatch from this goroutine. Once ctx is cancelled no fan needs a
	// worker any more: whichever side of the select takes it, its tasks
	// are counted as cancelled.
	for si := range spec.Sections {
		for di := range spec.SourceDepths {
			for fi := range spec.FreqsKHz {
				tel.Emit("climate", spec.taskID(ClimateTask{Slice: si, Source: di, Freq: fi}), 0, telemetry.PhaseQueued)
			}
			select {
			case fans <- fan{slice: si, source: di}:
			case <-ctx.Done():
				for fi := range spec.FreqsKHz {
					cancelTask(spec.taskID(ClimateTask{Slice: si, Source: di, Freq: fi}))
				}
			}
		}
	}
	close(fans)
	wg.Wait()
	// Canonicalize: workers append in completion order, which depends on
	// scheduling; the published result must be independent of Workers.
	sort.Slice(res.Tasks, func(a, b int) bool {
		ta, tb := res.Tasks[a].Task, res.Tasks[b].Task
		if ta.Slice != tb.Slice {
			return ta.Slice < tb.Slice
		}
		if ta.Source != tb.Source {
			return ta.Source < tb.Source
		}
		return ta.Freq < tb.Freq
	})
	res.Elapsed = time.Since(start)
	return res, nil
}
