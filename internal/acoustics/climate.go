package acoustics

import (
	"context"
	"fmt"
	"time"

	"esse/internal/taskpool"
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

// fanTask is one task's outcome inside a fan: done (res holds it),
// failed, or cancelled before it ran.
type fanTask struct {
	res               ClimateTaskResult
	failed, cancelled bool
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

	res := &ClimateResult{Tasks: make([]ClimateTaskResult, 0, spec.TaskCount())}
	// One solver per worker amortizes the TL grids across fans; slot
	// lane-1 is the worker's alone.
	solvers := make([]TLSolver, max(spec.Workers, 1))
	pool := &taskpool.Pool[[]fanTask]{
		Workers: spec.Workers,
		Task: func(ctx context.Context, lane int64, f int) []fanTask {
			si, di := f/len(spec.SourceDepths), f%len(spec.SourceDepths)
			cfg := spec.Base
			cfg.SourceDepth = spec.SourceDepths[di]
			out := make([]fanTask, nf)
			var err error
			for fi, freq := range spec.FreqsKHz {
				if ctx.Err() != nil {
					out[fi].cancelled = true
					continue
				}
				t0 := time.Now()
				// The first task of a fan carries the trace in its
				// Elapsed, so the sum of Elapsed stays the pool's busy
				// time; a failed trace fails every task of the fan, and a
				// cancelled first task leaves none to run untraced.
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
				elapsed := time.Since(t0)
				if err != nil {
					out[fi].failed = true
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
				out[fi].res = ClimateTaskResult{Task: task, MeanTL: mean, Elapsed: elapsed}
			}
			return out
		},
		Commit: func(_ int, tasks []fanTask) error {
			for _, t := range tasks {
				switch {
				case t.cancelled:
					res.Cancelled++
				case t.failed:
					res.Failed++
				default:
					res.Tasks = append(res.Tasks, t.res)
				}
			}
			return nil
		},
	}
	n, err := pool.Run(ctx, len(spec.Sections)*len(spec.SourceDepths))
	if err != nil {
		return nil, err
	}
	// Fans the pool never dispatched: ctx was cancelled first.
	res.Cancelled += spec.TaskCount() - n*nf
	res.Elapsed = time.Since(start)
	return res, nil
}
