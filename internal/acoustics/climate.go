package acoustics

import (
	"context"
	"fmt"
	"time"

	"esse/internal/taskpool"
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

// fanTask is one task's outcome inside a fan.
type fanTask struct {
	res   ClimateTaskResult
	phase telemetry.Phase // PhaseDone, PhaseFailed or PhaseCancelled
}

// ComputeClimate runs the full task product on the task pool. Its unit
// is the fan: the tasks of one (slice, source) pair, one per frequency,
// which trace the same rays — frequency enters a TL solve only in the dB
// conversion — so one worker traces once and levels the deposit for each
// frequency. If sink is non-nil it receives every completed field (from
// multiple goroutines). Tasks are in task order (slice, source,
// frequency) by construction: the pool commits fans in index order.
// Every task ends in exactly one of Tasks, Failed and Cancelled, also
// when ctx is cancelled mid-run.
func ComputeClimate(ctx context.Context, spec ClimateSpec, sink func(ClimateTask, *TLField)) (*ClimateResult, error) {
	if spec.TaskCount() == 0 {
		return nil, fmt.Errorf("acoustics: empty climate specification")
	}
	nf := len(spec.FreqsKHz)
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

	// Task ids flatten the product in (slice, source, frequency) order, as
	// events and spans name the tasks: fan f holds ids f·nf … f·nf+nf-1.
	// end gives a task its terminal phase, on the committing goroutine.
	res := &ClimateResult{Tasks: make([]ClimateTaskResult, 0, spec.TaskCount())}
	end := func(id int, t fanTask) {
		tel.Emit("climate", id, 0, t.phase)
		switch t.phase {
		case telemetry.PhaseDone:
			cTasksDone.Inc()
			res.Tasks = append(res.Tasks, t.res)
		case telemetry.PhaseFailed:
			cTasksFailed.Inc()
			res.Failed++
		default:
			cTasksCancelled.Inc()
			res.Cancelled++
		}
	}
	// One solver per worker amortizes the TL grids across fans; slot
	// lane-1 is the worker's alone.
	solvers := make([]TLSolver, max(spec.Workers, 1))
	pool := &taskpool.Pool[[]fanTask]{
		Workers: spec.Workers,
		Phase: func(f int, ph telemetry.Phase) {
			for id := f * nf; id < (f+1)*nf; id++ {
				tel.Emit("climate", id, 0, ph)
			}
		},
		Task: func(ctx context.Context, lane int64, f int) []fanTask {
			si, di := f/len(spec.SourceDepths), f%len(spec.SourceDepths)
			cfg := spec.Base
			cfg.SourceDepth = spec.SourceDepths[di]
			out := make([]fanTask, nf)
			var err error
			for fi, freq := range spec.FreqsKHz {
				if ctx.Err() != nil {
					out[fi].phase = telemetry.PhaseCancelled
					continue
				}
				_, sp := tel.SpanCtx(ctx, "acoustics", "tl-task", int64(f*nf+fi), lane)
				t0 := time.Now()
				// The first task of a fan carries the trace in its span
				// and Elapsed, so the sum of Elapsed stays the pool's
				// busy time; a failed trace fails every task of the fan,
				// and a cancelled first task leaves none to run untraced.
				if fi == 0 {
					err = solvers[lane-1].Trace(spec.Sections[si], cfg)
				}
				var field *TLField
				if err == nil {
					field = solvers[lane-1].Field(freq)
					if sink != nil {
						field = field.clone() // the sink retains it
					}
				}
				sp.End()
				elapsed := time.Since(t0)
				hTaskSec.Observe(elapsed.Seconds())
				if err != nil {
					out[fi].phase = telemetry.PhaseFailed
					continue
				}
				task := ClimateTask{Slice: si, Source: di, Freq: fi}
				if sink != nil {
					sink(task, field)
				}
				mean := 0.0
				for _, v := range field.TL.Data {
					mean += v
				}
				mean /= float64(len(field.TL.Data))
				out[fi] = fanTask{ClimateTaskResult{Task: task, MeanTL: mean, Elapsed: elapsed}, telemetry.PhaseDone}
			}
			return out
		},
		Commit: func(f int, tasks []fanTask) error {
			for fi, t := range tasks {
				end(f*nf+fi, t)
			}
			return nil
		},
	}
	n, err := pool.Run(ctx, len(spec.Sections)*len(spec.SourceDepths))
	if err != nil {
		return nil, err
	}
	// Fans the pool never dispatched: ctx was cancelled first.
	for id := n * nf; id < spec.TaskCount(); id++ {
		end(id, fanTask{phase: telemetry.PhaseCancelled})
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
