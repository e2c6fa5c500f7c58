package telemetry

import (
	"context"
	"strings"
	"testing"
)

func TestTraceIDDerivationAndFormat(t *testing.T) {
	a := DeriveTraceID(1)
	b := DeriveTraceID(1)
	c := DeriveTraceID(2)
	if a != b {
		t.Fatal("DeriveTraceID is not deterministic")
	}
	if a == c {
		t.Fatal("distinct seeds collided")
	}
	if a.IsZero() || DeriveTraceID(0).IsZero() {
		t.Fatal("derived trace ids must be nonzero")
	}
	s := a.String()
	if len(s) != 32 || strings.ToLower(s) != s {
		t.Fatalf("TraceID.String() = %q, want 32 lowercase hex", s)
	}
	var zero TraceID
	if !zero.IsZero() {
		t.Fatal("zero TraceID not IsZero")
	}
}

func TestContextCarriesSpan(t *testing.T) {
	tr := NewTracer()
	tr.SetTraceID(DeriveTraceID(5))
	sp := tr.StartChild(SpanContext{}, "workflow", "cycle", 0, 0)
	ctx := ContextWithSpan(context.Background(), sp)
	got := SpanFromContext(ctx)
	if got.Context() != sp.Context() {
		t.Fatalf("span from ctx = %+v, want %+v", got.Context(), sp.Context())
	}
	// Absent span: zero value, zero context.
	if SpanFromContext(context.Background()).Context() != (SpanContext{}) {
		t.Fatal("empty ctx yielded a span")
	}
	// A dead Span (zero value) does not replace the ctx.
	if ctx2 := ContextWithSpan(ctx, Span{}); ctx2 != ctx {
		t.Fatal("zero span replaced the context")
	}
}

func TestSetTraceIDThreadsIntoSpans(t *testing.T) {
	tr := NewTracer()
	want := DeriveTraceID(11)
	tr.SetTraceID(want)
	if tr.TraceID() != want {
		t.Fatalf("TraceID = %v, want %v", tr.TraceID(), want)
	}
	// Zero is ignored, not adopted.
	tr.SetTraceID(TraceID{})
	if tr.TraceID() != want {
		t.Fatal("zero SetTraceID overwrote the identity")
	}
	sp := tr.StartChild(SpanContext{}, "c", "n", -1, 0)
	if sp.Context().Trace != want {
		t.Fatalf("span trace = %v, want %v", sp.Context().Trace, want)
	}
	// A child keeps its parent's trace.
	parent := SpanContext{Trace: DeriveTraceID(12), Span: 99}
	child := tr.StartChild(parent, "c", "n", -1, 0)
	if child.Context().Trace != parent.Trace {
		t.Fatal("parent trace not kept")
	}
}
