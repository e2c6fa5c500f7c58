// Package telemetry is the repository's end-to-end observability layer:
// the piece the paper's Grid deployment lacked ("This approach gives no
// easy way for the user to monitor the progress of one's jobs", §5.3.1)
// and the profiling/introspection surface every production many-task
// system grows — EnTK's profiler over its ensemble executor and
// Melissa-DA's launcher fault handling are the published precedents.
//
// It bundles four facilities, all stdlib-only:
//
//   - a metrics Registry (registry.go): atomic counters and gauges with
//     constant, sorted label sets, exposed in Prometheus text format at
//     /metrics (expose.go);
//   - a per-task lifecycle EventLog (events.go): a bounded ring of
//     queued → dispatched → running → retried → done/failed/cancelled
//     transitions emitted by the workflow engine and the realtime
//     driver, served at /events;
//   - a wall-clock span Tracer (spans.go) exporting Chrome trace-event
//     JSON (load it in chrome://tracing or https://ui.perfetto.dev) so
//     an actual run renders as the MTC task Gantt of the paper's
//     Fig. 1. It is the one clock of this package: a duration is a
//     span, never a metric, and paper (ocean) time is data on
//     realtime's cycle results, which realtime converts into trace
//     rows of their own;
//   - runtime gauges (runtime.go) for heap bytes, GC activity and
//     goroutine counts, read from runtime/metrics when /metrics is
//     scraped, plus net/http/pprof mounted next to the other endpoints
//     (http.go).
//
// The zero value of every handle is a no-op: a nil *Telemetry (and the
// nil *Counter/*Gauge/*EventLog/*Tracer handles it yields)
// can be threaded through the hot paths unconditionally. The disabled
// path performs zero allocations — testing.AllocsPerRun pins this —
// so instrumentation stays resident in the engine with no tax when
// observability is off.
package telemetry

import "context"

// Telemetry bundles a metrics registry, a lifecycle event log and a
// wall-clock tracer. The nil *Telemetry is the disabled default: every
// method is nil-safe and returns the matching nil (no-op) handle.
type Telemetry struct {
	reg    *Registry
	events *EventLog
	tracer *Tracer
}

// New returns an enabled telemetry bundle with the default event-ring
// capacity (DefaultEventCap).
func New() *Telemetry {
	return &Telemetry{
		reg:    NewRegistry(),
		events: NewEventLog(0),
		tracer: NewTracer(),
	}
}

// Registry returns the metrics registry (nil when telemetry is off).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Events returns the lifecycle event log (nil when telemetry is off).
func (t *Telemetry) Events() *EventLog {
	if t == nil {
		return nil
	}
	return t.events
}

// Tracer returns the wall-clock tracer (nil when telemetry is off).
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

// Counter registers (or fetches) a counter series. labelKV alternates
// constant label keys and values; keys must be sorted and distinct —
// the registry checks at registration and panics on misuse. Nil-safe:
// returns nil when telemetry is disabled.
func (t *Telemetry) Counter(name, help string, labelKV ...string) *Counter {
	return t.Registry().Counter(name, help, labelKV...)
}

// Gauge registers (or fetches) a gauge series. Nil-safe.
func (t *Telemetry) Gauge(name, help string, labelKV ...string) *Gauge {
	return t.Registry().Gauge(name, help, labelKV...)
}

// Emit records one lifecycle event. Nil-safe and allocation-free.
func (t *Telemetry) Emit(task string, index, attempt int, phase Phase) {
	t.Events().Emit(task, index, attempt, phase)
}

// Span opens a wall-clock span on lane (the Chrome trace tid; use the
// member index or worker id). id >= 0 is rendered into the exported
// span name ("name-id") at export time so the hot path never formats
// strings. Nil-safe: the returned Span's End is then a no-op.
func (t *Telemetry) Span(cat, name string, id, lane int64) Span {
	return t.Tracer().Start(cat, name, id, lane)
}

// SpanCtx opens a span parented under the active span in ctx (a root
// when there is none) and returns a derived context carrying the new
// span, so callees parent under it in turn. lane < 0 inherits the
// parent's lane — the common case for phase spans that should nest
// inside the member row that opened them.
//
// Nil-safe and allocation-free when disabled: a nil *Telemetry returns
// ctx unchanged and a zero Span, with no context wrapping.
func (t *Telemetry) SpanCtx(ctx context.Context, cat, name string, id, lane int64) (context.Context, Span) {
	if t == nil {
		return ctx, Span{}
	}
	parent := SpanFromContext(ctx)
	if lane < 0 {
		lane = parent.lane
	}
	sp := t.tracer.StartChild(parent.Context(), cat, name, id, lane)
	return ContextWithSpan(ctx, sp), sp
}
