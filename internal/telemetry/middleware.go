package telemetry

import "net/http"

// httpLane is the Chrome tid server-side HTTP spans render on — a
// dedicated row well clear of worker lanes, so request handling reads
// as its own swimlane next to the compute spans.
const httpLane = 90

// Instrument wraps an HTTP handler with a span and a per-route request
// counter: it opens a server span for each request (its duration is
// the request latency) and threads the span through the request
// context for handlers that trace deeper.
//
// Nil-safe: a nil *Telemetry returns h unchanged, so uninstrumented
// servers pay nothing.
func (t *Telemetry) Instrument(route string, h http.Handler) http.Handler {
	if t == nil || h == nil {
		return h
	}
	reqs := t.Counter("esse_http_requests_total",
		"HTTP requests served, by instrumented route.", "route", route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		ctx, sp := t.SpanCtx(r.Context(), "http", route, -1, httpLane)
		h.ServeHTTP(w, r.WithContext(ctx))
		sp.End()
	})
}
