package workflow

import (
	"context"
	"slices"
	"strings"
	"testing"

	"esse/internal/telemetry"
)

// TestRunParallelTelemetry runs the engine with telemetry enabled and
// checks the full observability surface: lifecycle events in order,
// outcome counters consistent with the result, spans recorded, and a
// parseable /metrics exposition. RunSerial is the same loop, so it owes
// the same surface.
func TestRunParallelTelemetry(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			tel := telemetry.New()
			cfg := quickConfig()
			cfg.Telemetry = tel
			cfg.Retries = 2

			truth := toySubspace(1, 60, 3)
			res, err := e.run(context.Background(), cfg, make([]float64, 60),
				toyRunner(truth, 2, 0, 0, true)) // failOnce: every member retries once
			if err != nil {
				t.Fatal(err)
			}

			// Lifecycle events: every member walks queued → dispatched →
			// running before its terminal phase, and the retry phase shows up.
			events := tel.Events().Snapshot(0)
			if len(events) == 0 {
				t.Fatal("no lifecycle events emitted")
			}
			perMember := map[int][]telemetry.Phase{}
			retried := 0
			for _, e := range events {
				if e.Task != "member" {
					t.Fatalf("unexpected task %q", e.Task)
				}
				if e.Phase == telemetry.PhaseRetried {
					retried++
					continue // retry ordinal interleaves; order-checked phases exclude it
				}
				perMember[e.Index] = append(perMember[e.Index], e.Phase)
			}
			if retried == 0 {
				t.Fatal("failOnce runner produced no PhaseRetried events")
			}
			for idx, phases := range perMember {
				if len(phases) < 4 {
					t.Fatalf("member %d has %d phases: %v", idx, len(phases), phases)
				}
				want := []telemetry.Phase{telemetry.PhaseQueued, telemetry.PhaseDispatched, telemetry.PhaseRunning}
				for i, w := range want {
					if phases[i] != w {
						t.Fatalf("member %d phase %d = %v, want %v (%v)", idx, i, phases[i], w, phases)
					}
				}
				last := phases[len(phases)-1]
				if last != telemetry.PhaseDone && last != telemetry.PhaseFailed && last != telemetry.PhaseCancelled {
					t.Fatalf("member %d ends in %v", idx, last)
				}
			}

			// Counters agree with the result and the event stream.
			reg := tel.Registry()
			done := reg.Counter("esse_workflow_members_total", "Ensemble members by final outcome.", "outcome", "done")
			if got := done.Value(); got != uint64(res.MembersUsed) {
				t.Fatalf("done counter = %d, MembersUsed = %d", got, res.MembersUsed)
			}
			if got := reg.Counter("esse_workflow_retries_total", "Member attempts that failed and were retried.").Value(); got != uint64(retried) {
				t.Fatalf("retries counter = %d, retried events = %d", got, retried)
			}
			if got := reg.Counter("esse_workflow_svd_rounds_total", "SVD/convergence stage executions.").Value(); got != uint64(res.SVDRounds) {
				t.Fatalf("svd counter = %d, SVDRounds = %d", got, res.SVDRounds)
			}

			// Spans: one per completed member plus one per SVD round.
			if got := tel.Tracer().Len(); got < res.MembersUsed+res.SVDRounds {
				t.Fatalf("spans = %d, want >= %d members + %d SVD rounds", got, res.MembersUsed, res.SVDRounds)
			}

			// The whole run scrapes into a parseable exposition.
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			exp, err := telemetry.ParsePrometheus(strings.NewReader(sb.String()))
			if err != nil {
				t.Fatalf("unparseable exposition: %v\n%s", err, sb.String())
			}
			if v, ok := exp.Value("esse_workflow_target_members"); !ok || v < float64(cfg.InitialSize) {
				t.Fatalf("target gauge = %v, %v", v, ok)
			}
			// Exactly the families DESIGN §8 tables for the engine: one
			// with no reader cannot come back unnoticed.
			var names []string
			for _, f := range exp.Families {
				names = append(names, f.Name)
			}
			want := []string{"esse_workflow_members_total", "esse_workflow_retries_total",
				"esse_workflow_svd_rounds_total", "esse_workflow_target_members"}
			if !slices.Equal(names, want) {
				t.Fatalf("engine families = %v, want %v", names, want)
			}
		})
	}
}
