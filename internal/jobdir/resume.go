package jobdir

import (
	"context"
	"fmt"

	"esse/internal/workflow"
)

// ResumableRunner wraps a MemberRunner with tracker bookkeeping: a
// member that already completed successfully is NOT recomputed — its
// persisted forecast state is loaded back — and every fresh completion
// is persisted before it is reported. This is the paper's "if the ESSE
// execution gets stopped, it can only be restarted without rerunning all
// jobs" behaviour (§4.2), generalized to both submission strategies.
//
// Failures are recorded with a nonzero code; a restart retries them
// (matching the engine's failure-tolerance semantics rather than
// permanently poisoning an index).
func ResumableRunner(t *Tracker, inner workflow.MemberRunner) workflow.MemberRunner {
	return func(ctx context.Context, index int) ([]float64, error) {
		// One read gives code and state; only a loaded member records a span.
		_, sp := t.tel.SpanCtx(ctx, "jobdir", "load-state", int64(index), -1)
		state, loadErr := t.LoadState(index)
		if state != nil {
			sp.End()
			return state, nil
		}
		if loadErr != nil {
			// Corrupt, or done without a readable state (the shared
			// directory may have been pruned): forget it and recompute.
			if resetErr := t.Reset(index); resetErr != nil {
				return nil, fmt.Errorf("jobdir: member %d unreadable and unresettable: %w", index, resetErr)
			}
		}
		state, runErr := inner(ctx, index)
		if runErr != nil {
			if ctx.Err() == nil {
				// Real failure (not cancellation): record a nonzero code.
				//esselint:allow errdrop best-effort bookkeeping; a restart simply retries the member
				_ = t.Complete(index, 1)
			}
			return nil, runErr
		}
		_, sp = t.tel.SpanCtx(ctx, "jobdir", "save-state", int64(index), -1)
		defer sp.End()
		if err := t.SaveState(index, state); err != nil {
			return nil, err
		}
		return state, nil
	}
}
