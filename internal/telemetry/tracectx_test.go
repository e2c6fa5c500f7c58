package telemetry

import (
	"context"
	"net/http"
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

func TestTraceParentRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: DeriveTraceID(3), Span: 42}
	h := FormatTraceParent(sc)
	if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("header = %q", h)
	}
	back, ok := ParseTraceParent(h)
	if !ok || back != sc {
		t.Fatalf("parse = %+v, %v", back, ok)
	}
	// Any flags byte is accepted on parse; rendering is canonical.
	variant := h[:len(h)-2] + "ff"
	if got, ok := ParseTraceParent(variant); !ok || got != sc {
		t.Fatalf("flags variant rejected: %q", variant)
	}
	if re := FormatTraceParent(back); re != h {
		t.Fatalf("re-render %q != %q", re, h)
	}
}

func TestParseTraceParentRejects(t *testing.T) {
	good := FormatTraceParent(SpanContext{Trace: DeriveTraceID(3), Span: 42})
	bad := []string{
		"",
		good[:54],                          // short
		good + "0",                         // long
		"01" + good[2:],                    // future version
		strings.ToUpper(good),              // uppercase hex
		strings.Replace(good, "-", "_", 1), // bad separator
		"00-" + strings.Repeat("0", 32) + good[35:], // zero trace
		good[:36] + strings.Repeat("0", 16) + "-01", // zero span
		"00-" + strings.Repeat("g", 32) + good[35:], // non-hex
	}
	for _, s := range bad {
		if _, ok := ParseTraceParent(s); ok {
			t.Errorf("accepted %q", s)
		}
	}
}

func TestInjectExtract(t *testing.T) {
	sc := SpanContext{Trace: DeriveTraceID(9), Span: 7}
	h := http.Header{}
	Inject(h, sc)
	got, ok := Extract(h)
	if !ok || got != sc {
		t.Fatalf("extract = %+v, %v", got, ok)
	}
	// A zero context must not be injected at all.
	empty := http.Header{}
	Inject(empty, SpanContext{})
	if empty.Get(TraceParentHeader) != "" {
		t.Fatal("zero context injected a header")
	}
	if _, ok := Extract(empty); ok {
		t.Fatal("extracted a context from no header")
	}
	// Half-zero contexts are equally unsound on the wire.
	half := http.Header{}
	Inject(half, SpanContext{Trace: sc.Trace})
	if half.Get(TraceParentHeader) != "" {
		t.Fatal("half-zero context injected a header")
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
	if !SpanFromContext(context.Background()).Context().IsZero() {
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
	// A remote parent overrides the local identity.
	remote := SpanContext{Trace: DeriveTraceID(12), Span: 99}
	child := tr.StartChild(remote, "c", "n", -1, 0)
	if child.Context().Trace != remote.Trace {
		t.Fatal("remote parent trace not adopted")
	}
}
