package telemetry

import (
	"context"
	"net/http"
)

// Causal identity for spans. A TraceID names one run-scoped causal
// graph (one forecast run, one simulation); a SpanID names one node in
// it. Both are deterministic: the TraceID derives from the run seed via
// DeriveTraceID, span IDs come off an atomic counter on the Tracer, so
// two runs with the same seed and schedule produce the same tree shape
// (span-ID *assignment order* under a concurrent pool follows the
// scheduler, but parent/child edges do not).
//
// The wire form is W3C-traceparent-shaped: lowercase hex, 32 digits of
// trace ID, 16 of span ID, all-zero invalid.

// TraceID is a 128-bit run identity. The zero value means "no trace".
type TraceID struct{ Hi, Lo uint64 }

// IsZero reports whether the TraceID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t.Hi == 0 && t.Lo == 0 }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string {
	var b [32]byte
	appendHex(b[:0], t.Hi)
	appendHex(b[16:16], t.Lo)
	return string(b[:])
}

// SpanID is a 64-bit span identity. Zero means "no span".
type SpanID uint64

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string {
	var b [16]byte
	appendHex(b[:0], uint64(s))
	return string(b[:])
}

// SpanContext is the propagated half of a span: enough identity to
// parent remote children under it. The zero value means "no span" and
// injects/extracts as absent.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// IsZero reports whether the context carries no span identity.
func (sc SpanContext) IsZero() bool { return sc.Trace.IsZero() && sc.Span == 0 }

// SpanHex renders the span ID as 16 hex digits, or "" when zero.
func (sc SpanContext) SpanHex() string {
	if sc.Span == 0 {
		return ""
	}
	return sc.Span.String()
}

// DeriveTraceID maps a run seed to a non-zero TraceID with a
// splitmix64 finalizer on two counters, so runs restarted from the
// same -seed carry the same trace identity across every process.
func DeriveTraceID(seed uint64) TraceID {
	id := TraceID{Hi: splitmix64(seed), Lo: splitmix64(seed + 0x9e3779b97f4a7c15)}
	if id.IsZero() {
		id.Lo = 1
	}
	return id
}

// splitmix64 is the finalizer from Vigna's SplitMix64 generator: a
// cheap, well-mixed 64-bit hash with no zero fixed point problems once
// the golden-ratio increment is added by the caller.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

const hexDigits = "0123456789abcdef"

// appendHex appends exactly 16 lowercase hex digits.
func appendHex(dst []byte, v uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[(v>>uint(shift))&0xf])
	}
	return dst
}

// parseHex parses up to 16 lowercase hex digits. Uppercase is
// rejected: the traceparent grammar and our canonical form are
// lowercase-only, and accepting both would break re-render canonicity.
func parseHex(s string) (uint64, bool) {
	if len(s) == 0 || len(s) > 16 {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// TraceParentHeader is the HTTP header carrying a SpanContext between
// processes, in the W3C trace-context "traceparent" shape:
//
//	00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
//
// version (00 only) - trace-id (32 hex) - parent-id (16 hex) - flags
// (any two hex digits accepted; re-rendered canonically as 01).
const TraceParentHeader = "Traceparent"

// traceParentLen is the exact length of a traceparent value:
// 2 + 1 + 32 + 1 + 16 + 1 + 2.
const traceParentLen = 55

// FormatTraceParent renders sc in canonical traceparent form. The
// result of parsing any accepted header re-renders to this canonical
// string (FuzzParseTraceContext pins the property).
func FormatTraceParent(sc SpanContext) string {
	b := make([]byte, 0, traceParentLen)
	b = append(b, "00-"...)
	b = appendHex(b, sc.Trace.Hi)
	b = appendHex(b, sc.Trace.Lo)
	b = append(b, '-')
	b = appendHex(b, uint64(sc.Span))
	b = append(b, "-01"...)
	return string(b)
}

// ParseTraceParent parses a traceparent-shaped value. It accepts
// version 00 only, requires lowercase hex throughout, accepts any
// flags byte, and rejects all-zero trace or span IDs (the W3C grammar
// marks both invalid).
func ParseTraceParent(s string) (SpanContext, bool) {
	if len(s) != traceParentLen || s[0] != '0' || s[1] != '0' ||
		s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	hi, ok1 := parseHex(s[3:19])
	lo, ok2 := parseHex(s[19:35])
	sp, ok3 := parseHex(s[36:52])
	_, ok4 := parseHex(s[53:55])
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return SpanContext{}, false
	}
	sc := SpanContext{Trace: TraceID{Hi: hi, Lo: lo}, Span: SpanID(sp)}
	if sc.Trace.IsZero() || sc.Span == 0 {
		return SpanContext{}, false
	}
	return sc, true
}

// Inject writes sc into h as a traceparent header. A zero context
// writes nothing, so uninstrumented callers stay header-identical.
func Inject(h http.Header, sc SpanContext) {
	if sc.Trace.IsZero() || sc.Span == 0 {
		return
	}
	h.Set(TraceParentHeader, FormatTraceParent(sc))
}

// Extract reads a SpanContext out of h. ok is false when the header is
// absent or malformed; callers then start a fresh root span.
func Extract(h http.Header) (SpanContext, bool) {
	return ParseTraceParent(h.Get(TraceParentHeader))
}

// spanCtxKey keys the active Span in a context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying sp as the active span.
// Children started with Telemetry.SpanCtx parent under it. Storing a
// zero Span returns ctx unchanged.
func ContextWithSpan(ctx context.Context, sp Span) context.Context {
	if sp.tr == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the active span, or the zero Span when none
// is set. The zero Span's Context() is the zero SpanContext.
func SpanFromContext(ctx context.Context) Span {
	if ctx == nil {
		return Span{}
	}
	sp, _ := ctx.Value(spanCtxKey{}).(Span)
	return sp
}
