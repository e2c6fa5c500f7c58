package telemetry

import "context"

// Causal identity for spans. A TraceID names one run-scoped causal
// graph (one forecast run, one simulation); a SpanID names one node in
// it. Both are deterministic: the TraceID derives from the run seed via
// DeriveTraceID, span IDs come off an atomic counter on the Tracer, so
// two runs with the same seed and schedule produce the same tree shape
// (span-ID *assignment order* under a concurrent pool follows the
// scheduler, but parent/child edges do not).
//
// Exported spans carry both in lowercase hex (32 digits of trace ID, 16
// of span ID); all-zero is invalid.

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

// SpanContext is the identity half of a span: enough to parent
// children under it. The zero value means "no span".
type SpanContext struct {
	Trace TraceID
	Span  SpanID
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
