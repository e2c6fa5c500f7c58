package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// DisplayURL renders a clickable URL for a listen address: a bare
// ":port" gains a localhost host, a full "host:port" is kept as-is.
// The -telemetry-addr banners use it.
func DisplayURL(addr, path string) string {
	if strings.HasPrefix(addr, ":") {
		addr = "localhost" + addr
	}
	return "http://" + addr + path
}

// Mount registers the telemetry endpoints on mux:
//
//	/metrics        Prometheus text exposition, with the go_* runtime
//	                gauges read at scrape time
//	/events         lifecycle event JSON (?since=<seq> for increments)
//	/trace          Chrome trace-event JSON of the wall-clock spans
//	/debug/pprof/*  the standard net/http/pprof handlers
//
// Mounting on a nil *Telemetry is a no-op so callers can wire the
// monitor mux unconditionally.
func (t *Telemetry) Mount(mux *http.ServeMux) {
	if t == nil || mux == nil {
		return
	}
	mux.HandleFunc("/metrics", t.metricsHandler())
	mux.HandleFunc("/events", t.handleEvents)
	mux.HandleFunc("/trace", t.handleTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Handler returns a mux with all telemetry endpoints mounted — the
// standalone server used by the -telemetry-addr flags.
func (t *Telemetry) Handler() http.Handler {
	mux := http.NewServeMux()
	t.Mount(mux)
	return mux
}

// metricsHandler registers the runtime gauges and returns the /metrics
// handler, which reads them before each exposition.
func (t *Telemetry) metricsHandler() http.HandlerFunc {
	rt := newRuntimeGauges(t)
	return func(w http.ResponseWriter, _ *http.Request) {
		rt.read()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		//esselint:allow errdrop HTTP response write failure means the client went away; nothing to do
		_ = t.Registry().WritePrometheus(w)
	}
}

// EventsPage is the /events response envelope. Oldest lets a poller
// detect ring wraparound (events in [since, oldest) were lost).
type EventsPage struct {
	Total  int64   `json:"total"`
	Oldest int64   `json:"oldest"`
	Events []Event `json:"events"`
}

// ParseEvents decodes one /events response body — the read side of
// handleEvents, for pollers and tests that consume the endpoint.
func ParseEvents(r io.Reader) (*EventsPage, error) {
	var page EventsPage
	if err := json.NewDecoder(r).Decode(&page); err != nil {
		return nil, fmt.Errorf("telemetry: decoding events page: %w", err)
	}
	return &page, nil
}

func (t *Telemetry) handleEvents(w http.ResponseWriter, r *http.Request) {
	since := int64(0)
	if q := r.URL.Query().Get("since"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil || v < 0 {
			http.Error(w, "bad since parameter", http.StatusBadRequest)
			return
		}
		since = v
	}
	log := t.Events()
	reply := EventsPage{
		Total:  log.Total(),
		Oldest: log.Oldest(),
		Events: log.Snapshot(since),
	}
	if reply.Events == nil {
		reply.Events = []Event{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//esselint:allow errdrop HTTP response write failure means the client went away; nothing to do
	_ = enc.Encode(reply)
}

func (t *Telemetry) handleTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
	//esselint:allow errdrop HTTP response write failure means the client went away; nothing to do
	_ = WriteChromeTrace(w, t.Tracer().ChromeEvents())
}
