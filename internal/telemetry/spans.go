package telemetry

import (
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records wall-clock spans and exports them as Chrome
// trace-event JSON, the format chrome://tracing and ui.perfetto.dev
// load directly. Each span becomes a "complete" (ph "X") event; spans
// on the same lane (tid) nest by time containment, so opening an outer
// cycle span and inner member spans renders the hierarchical Gantt of
// the paper's Fig. 1 from a real run.
//
// The hot path is allocation-free: Start captures a timestamp into a
// value-type Span, End appends one spanRecord by value under the
// tracer lock. Names with ids ("member-12") are rendered only at
// export. The nil *Tracer is a no-op.
type Tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []spanRecord
	// Run identity stamped on locally-rooted spans, stored as two
	// atomics so Start stays lock-free. SetTraceID is called once at
	// startup, before concurrent span traffic, so the halves never
	// tear in practice.
	trHi, trLo atomic.Uint64
	nextSpn    atomic.Uint64 // next SpanID; allocation is a single Add
}

// spanRecord is one finished span, stored by value.
type spanRecord struct {
	cat, name string
	id        int64 // rendered as "name-id" at export when >= 0
	lane      int64 // Chrome tid
	start     time.Duration
	dur       time.Duration
	trace     TraceID // trace this span belongs to
	span      SpanID  // this span's identity
	parent    SpanID  // zero for roots
}

// Span is an open interval handed out by Tracer.Start. It is a value:
// copying it is cheap and starting one never heap-allocates. End may
// be called at most once; on a Span from a nil Tracer, End is a no-op.
type Span struct {
	tr     *Tracer
	cat    string
	name   string
	id     int64
	lane   int64
	start  time.Duration
	trace  TraceID
	span   SpanID
	parent SpanID
}

// Context returns the span's identity, the parent to hand StartChild.
// Zero on a Span from a nil Tracer.
func (s Span) Context() SpanContext {
	return SpanContext{Trace: s.trace, Span: s.span}
}

// NewTracer returns an empty tracer whose clock starts now. Its trace
// identity defaults to DeriveTraceID(0); runs that want a seed-stable
// identity call SetTraceID before the first span.
func NewTracer() *Tracer {
	t := &Tracer{base: time.Now()}
	t.SetTraceID(DeriveTraceID(0))
	return t
}

// SetTraceID fixes the run identity stamped on every subsequent
// locally-rooted span. Call it once at startup, before span traffic. A
// zero id is ignored — an all-zero TraceID is invalid.
func (t *Tracer) SetTraceID(id TraceID) {
	if t == nil || id.IsZero() {
		return
	}
	t.trHi.Store(id.Hi)
	t.trLo.Store(id.Lo)
}

// TraceID returns the tracer's run identity (zero when t is nil).
func (t *Tracer) TraceID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return TraceID{Hi: t.trHi.Load(), Lo: t.trLo.Load()}
}

// Start opens a root span in category cat. id >= 0 is appended to the
// name at export time ("name-id"); pass -1 for none. lane selects the
// Chrome tid row — use the worker id or member index so concurrent
// tasks land on separate rows.
func (t *Tracer) Start(cat, name string, id, lane int64) Span {
	return t.StartChild(SpanContext{}, cat, name, id, lane)
}

// StartChild opens a span parented under parent. A zero parent yields
// a root span on the tracer's own trace; a child keeps its parent's
// trace. lane < 0 picks lane 0 (callers threading contexts use
// Telemetry.SpanCtx, which resolves lane < 0 to the parent's lane
// instead).
func (t *Tracer) StartChild(parent SpanContext, cat, name string, id, lane int64) Span {
	if t == nil {
		return Span{}
	}
	if lane < 0 {
		lane = 0
	}
	tr := parent.Trace
	if tr.IsZero() {
		tr = t.TraceID()
	}
	return Span{
		tr:     t,
		cat:    cat,
		name:   name,
		id:     id,
		lane:   lane,
		start:  time.Since(t.base),
		trace:  tr,
		span:   SpanID(t.nextSpn.Add(1)),
		parent: parent.Span,
	}
}

// End closes the span and records it. No-op on a zero Span.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	end := time.Since(s.tr.base)
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, spanRecord{
		cat:    s.cat,
		name:   s.name,
		id:     s.id,
		lane:   s.lane,
		start:  s.start,
		dur:    end - s.start,
		trace:  s.trace,
		span:   s.span,
		parent: s.parent,
	})
	s.tr.mu.Unlock()
}

// Len returns the number of finished spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// ChromeEvent is one trace event in the Chrome trace-event JSON array
// format. Ph, Ts and Pid intentionally have no omitempty: viewers
// require them even when zero. ID and BP serve flow events (ph "s"
// start, ph "f" finish with bp "e"), which draw the parent → child
// arrows between lanes; Args carries the span identity forensics tools
// rebuild the tree from.
type ChromeEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat,omitempty"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`
	Dur  float64   `json:"dur,omitempty"`
	Pid  int64     `json:"pid"`
	Tid  int64     `json:"tid"`
	ID   string    `json:"id,omitempty"`
	BP   string    `json:"bp,omitempty"`
	Args *SpanArgs `json:"args,omitempty"`
}

// SpanArgs is the identity block attached to exported span events.
// Lowercase hex strings; ParentSpan is empty on roots.
type SpanArgs struct {
	TraceID    string `json:"trace_id"`
	SpanID     string `json:"span_id"`
	ParentSpan string `json:"parent_span_id,omitempty"`
}

// chromePidWall is the pid lane for wall-clock spans; realtime's
// paper-time rows from cycles use pid 2, so the two clocks never share
// an axis.
const chromePidWall = 1

// ChromeEvents renders the finished spans as complete ("X") events
// with microsecond timestamps relative to the tracer's start, each
// carrying its span identity in Args. Every span whose parent also
// finished locally additionally yields a flow-event pair ("s" on the
// parent's lane, "f" with bp "e" on the child's) so viewers draw the
// causal arrow even when parent and child render on different lanes.
func (t *Tracer) ChromeEvents() []ChromeEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	recs := make([]spanRecord, len(t.spans))
	copy(recs, t.spans)
	t.mu.Unlock()
	byID := make(map[SpanID]int, len(recs))
	for i, r := range recs {
		byID[r.span] = i
	}
	out := make([]ChromeEvent, 0, 3*len(recs))
	name := make([]byte, 0, 64)
	for _, r := range recs {
		name = name[:0]
		name = append(name, r.name...)
		if r.id >= 0 {
			name = append(name, '-')
			name = strconv.AppendInt(name, r.id, 10)
		}
		args := &SpanArgs{TraceID: r.trace.String(), SpanID: r.span.String()}
		if r.parent != 0 {
			args.ParentSpan = r.parent.String()
		}
		out = append(out, ChromeEvent{
			Name: string(name),
			Cat:  r.cat,
			Ph:   "X",
			Ts:   float64(r.start.Nanoseconds()) / 1e3,
			Dur:  float64(r.dur.Nanoseconds()) / 1e3,
			Pid:  chromePidWall,
			Tid:  r.lane,
			Args: args,
		})
		pi, ok := byID[r.parent]
		if r.parent == 0 || !ok {
			continue
		}
		parent := recs[pi]
		// The "s" endpoint must fall inside the source slice for
		// viewers to bind it; clamp the child start into the parent's
		// interval (retries can momentarily start before a re-opened
		// parent under coarse clocks).
		ts := r.start
		if ts < parent.start {
			ts = parent.start
		}
		if end := parent.start + parent.dur; ts > end {
			ts = end
		}
		flowID := r.span.String()
		out = append(out,
			ChromeEvent{
				Name: "parent",
				Cat:  "flow",
				Ph:   "s",
				Ts:   float64(ts.Nanoseconds()) / 1e3,
				Pid:  chromePidWall,
				Tid:  parent.lane,
				ID:   flowID,
			},
			ChromeEvent{
				Name: "parent",
				Cat:  "flow",
				Ph:   "f",
				Ts:   float64(r.start.Nanoseconds()) / 1e3,
				Pid:  chromePidWall,
				Tid:  r.lane,
				ID:   flowID,
				BP:   "e",
			},
		)
	}
	return out
}

// WriteChromeTrace writes events as a Chrome trace-event JSON array.
// The output loads directly into chrome://tracing and Perfetto.
func WriteChromeTrace(w io.Writer, events []ChromeEvent) error {
	buf := make([]byte, 0, 64+128*len(events))
	buf = append(buf, '[', '\n')
	for i, e := range events {
		if i > 0 {
			buf = append(buf, ',', '\n')
		}
		buf = appendChromeEvent(buf, e)
	}
	buf = append(buf, '\n', ']', '\n')
	_, err := w.Write(buf)
	return err
}

// appendChromeEvent renders one event without encoding/json so export
// stays a single-buffer append pass. encoding/json round-trip of this
// output is pinned by tests.
func appendChromeEvent(buf []byte, e ChromeEvent) []byte {
	buf = append(buf, `{"name":`...)
	buf = strconv.AppendQuote(buf, e.Name)
	if e.Cat != "" {
		buf = append(buf, `,"cat":`...)
		buf = strconv.AppendQuote(buf, e.Cat)
	}
	buf = append(buf, `,"ph":`...)
	buf = strconv.AppendQuote(buf, e.Ph)
	buf = append(buf, `,"ts":`...)
	buf = strconv.AppendFloat(buf, e.Ts, 'f', -1, 64)
	if e.Dur != 0 {
		buf = append(buf, `,"dur":`...)
		buf = strconv.AppendFloat(buf, e.Dur, 'f', -1, 64)
	}
	buf = append(buf, `,"pid":`...)
	buf = strconv.AppendInt(buf, e.Pid, 10)
	buf = append(buf, `,"tid":`...)
	buf = strconv.AppendInt(buf, e.Tid, 10)
	if e.ID != "" {
		buf = append(buf, `,"id":`...)
		buf = strconv.AppendQuote(buf, e.ID)
	}
	if e.BP != "" {
		buf = append(buf, `,"bp":`...)
		buf = strconv.AppendQuote(buf, e.BP)
	}
	if e.Args != nil {
		buf = append(buf, `,"args":{"trace_id":`...)
		buf = strconv.AppendQuote(buf, e.Args.TraceID)
		buf = append(buf, `,"span_id":`...)
		buf = strconv.AppendQuote(buf, e.Args.SpanID)
		if e.Args.ParentSpan != "" {
			buf = append(buf, `,"parent_span_id":`...)
			buf = strconv.AppendQuote(buf, e.Args.ParentSpan)
		}
		buf = append(buf, '}')
	}
	buf = append(buf, '}')
	return buf
}
