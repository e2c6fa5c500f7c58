package telemetry

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// scrape parses the telemetry registry's exposition.
func scrape(t *testing.T, tel *Telemetry) *Exposition {
	t.Helper()
	exp, err := ParsePrometheus(strings.NewReader(scrapeString(t, tel.Registry())))
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

func TestInstrumentNilTelemetryReturnsHandler(t *testing.T) {
	var tel *Telemetry
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	if got := tel.Instrument("route", h); got == nil {
		t.Fatal("nil telemetry must pass the handler through")
	}
	if tel.Instrument("route", nil) != nil {
		t.Fatal("nil handler must stay nil")
	}
}

// findSpan returns the exported wall span with the given name.
func findSpan(t *testing.T, tel *Telemetry, name string) ChromeEvent {
	t.Helper()
	for _, e := range tel.Tracer().ChromeEvents() {
		if e.Ph == "X" && e.Name == name {
			return e
		}
	}
	t.Fatalf("no span named %q exported", name)
	return ChromeEvent{}
}

// TestInstrumentWithoutInboundHeader pins the middleware: each request
// gets a root span on the local trace and the HTTP lane, the handler
// sees that span in its context, and the route is counted.
func TestInstrumentWithoutInboundHeader(t *testing.T) {
	tel := New()
	want := DeriveTraceID(300)
	tel.Tracer().SetTraceID(want)
	var sawCtxSpan SpanContext
	h := tel.Instrument("datasets", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawCtxSpan = SpanFromContext(r.Context()).Context()
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/datasets", nil))

	ev := findSpan(t, tel, "datasets")
	if ev.Args == nil || ev.Args.TraceID != want.String() {
		t.Fatalf("span trace = %+v, want local %s", ev.Args, want)
	}
	if ev.Args.ParentSpan != "" {
		t.Errorf("headerless request grew a parent: %q", ev.Args.ParentSpan)
	}
	if ev.Tid != httpLane {
		t.Errorf("server span lane = %d, want %d", ev.Tid, httpLane)
	}
	if sawCtxSpan.Span == 0 || sawCtxSpan.Span.String() != ev.Args.SpanID {
		t.Errorf("handler ctx span = %+v, want %s", sawCtxSpan, ev.Args.SpanID)
	}

	exp := scrape(t, tel)
	f := exp.Family("esse_http_requests_total")
	if f == nil || len(f.Samples) != 1 || f.Samples[0].Value != 1 {
		t.Fatalf("requests family = %+v", f)
	}
	if f.Samples[0].Labels[0].Value != "datasets" {
		t.Errorf("route label = %+v", f.Samples[0].Labels)
	}
}
