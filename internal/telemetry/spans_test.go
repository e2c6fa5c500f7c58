package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

func TestTracerSpans(t *testing.T) {
	tr := NewTracer()
	outer := tr.Start("workflow", "cycle", 1, 0)
	inner := tr.Start("workflow", "member", 12, 3)
	time.Sleep(time.Millisecond)
	inner.End()
	outer.End()

	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	evs := tr.ChromeEvents()
	if len(evs) != 2 {
		t.Fatalf("ChromeEvents = %d, want 2", len(evs))
	}
	// End order is record order: inner finished first.
	if evs[0].Name != "member-12" || evs[1].Name != "cycle-1" {
		t.Fatalf("names = %q, %q", evs[0].Name, evs[1].Name)
	}
	for _, e := range evs {
		if e.Ph != "X" {
			t.Fatalf("ph = %q, want X", e.Ph)
		}
		if e.Pid != chromePidWall {
			t.Fatalf("pid = %d, want %d", e.Pid, chromePidWall)
		}
		if e.Dur <= 0 {
			t.Fatalf("dur = %v, want > 0", e.Dur)
		}
	}
	if evs[0].Tid != 3 || evs[1].Tid != 0 {
		t.Fatalf("tids = %d, %d, want 3, 0", evs[0].Tid, evs[1].Tid)
	}
	// The outer span contains the inner one in time.
	if evs[1].Ts > evs[0].Ts || evs[1].Ts+evs[1].Dur < evs[0].Ts+evs[0].Dur {
		t.Fatalf("outer [%v,%v] does not contain inner [%v,%v]",
			evs[1].Ts, evs[1].Ts+evs[1].Dur, evs[0].Ts, evs[0].Ts+evs[0].Dur)
	}

	// id -1 leaves the name unsuffixed.
	sp := tr.Start("workflow", "svd", -1, 0)
	sp.End()
	if evs := tr.ChromeEvents(); evs[2].Name != "svd" {
		t.Fatalf("name = %q, want svd", evs[2].Name)
	}
}

// TestChromeTraceRoundTrip pins the hand-rolled JSON writer against
// encoding/json: the output must decode into the same events, and the
// required keys (ph, ts, pid) must be present even when zero.
func TestChromeTraceRoundTrip(t *testing.T) {
	in := []ChromeEvent{
		{Name: "cycle-1", Cat: "workflow", Ph: "X", Ts: 0, Dur: 1500, Pid: 1, Tid: 0,
			Args: &SpanArgs{TraceID: "00ab", SpanID: "0001"}},
		{Name: "member-2", Cat: "workflow", Ph: "X", Ts: 1, Dur: 2, Pid: 1, Tid: 1,
			Args: &SpanArgs{TraceID: "00ab", SpanID: "0002", ParentSpan: "0001"}},
		{Name: "parent", Cat: "flow", Ph: "s", Ts: 1, Pid: 1, Tid: 0, ID: "0002"},
		{Name: "parent", Cat: "flow", Ph: "f", Ts: 1, Pid: 1, Tid: 1, ID: "0002", BP: "e"},
		{Name: `quote"and\slash`, Ph: "X", Ts: 12.25, Dur: 0.5, Pid: 2, Tid: 7},
		{Name: "zero", Ph: "X", Ts: 0, Dur: 0, Pid: 0, Tid: 0},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, in); err != nil {
		t.Fatal(err)
	}

	var out []ChromeEvent
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if !reflect.DeepEqual(in[i], out[i]) {
			t.Fatalf("event %d: %+v != %+v", i, in[i], out[i])
		}
	}

	// Required keys survive zero values (no omitempty on ph/ts/pid/tid).
	var generic []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &generic); err != nil {
		t.Fatal(err)
	}
	for i, m := range generic {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := m[key]; !ok {
				t.Fatalf("event %d missing required key %q: %v", i, key, m)
			}
		}
		if ph, ok := m["ph"].(string); !ok || ph == "" {
			t.Fatalf("event %d ph = %v", i, m["ph"])
		}
	}

	// An empty trace is still a valid JSON array.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var empty []ChromeEvent
	if err := json.Unmarshal(buf.Bytes(), &empty); err != nil || len(empty) != 0 {
		t.Fatalf("empty trace: %v, %v", empty, err)
	}
}

// TestChromeEventsFlowPairs pins the parent-linked export: every
// locally-finished child yields an "s"/"f" flow pair binding its lane
// to its parent's, and every X event carries its span identity.
func TestChromeEventsFlowPairs(t *testing.T) {
	tr := NewTracer()
	tr.SetTraceID(DeriveTraceID(21))
	root := tr.StartChild(SpanContext{}, "realtime", "cycle", 0, 0)
	child := tr.StartChild(root.Context(), "workflow", "member", 4, 2)
	child.End()
	root.End()

	evs := tr.ChromeEvents()
	// 2 X events + one flow pair for the child.
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	var x []ChromeEvent
	var s, f *ChromeEvent
	for i := range evs {
		switch evs[i].Ph {
		case "X":
			x = append(x, evs[i])
		case "s":
			s = &evs[i]
		case "f":
			f = &evs[i]
		}
	}
	if len(x) != 2 || s == nil || f == nil {
		t.Fatalf("mix = %+v", evs)
	}
	for _, e := range x {
		if e.Args == nil || e.Args.TraceID != tr.TraceID().String() || e.Args.SpanID == "" {
			t.Fatalf("X event missing identity: %+v", e)
		}
	}
	// The child X event names its parent; the root does not.
	if x[0].Name != "member-4" || x[0].Args.ParentSpan != root.Context().Span.String() {
		t.Fatalf("child identity = %+v", x[0].Args)
	}
	if x[1].Args.ParentSpan != "" {
		t.Fatalf("root grew a parent: %+v", x[1].Args)
	}
	// Flow pair: s on the parent's lane, f (bp=e) on the child's, both
	// carrying the child span id, s's ts inside the parent interval.
	if s.Tid != 0 || f.Tid != 2 || f.BP != "e" {
		t.Fatalf("flow lanes/bp = %+v, %+v", s, f)
	}
	if s.ID != child.Context().Span.String() || f.ID != s.ID {
		t.Fatalf("flow ids = %q, %q, want %q", s.ID, f.ID, child.Context().Span.String())
	}
	rootEv := x[1]
	if s.Ts < rootEv.Ts || s.Ts > rootEv.Ts+rootEv.Dur {
		t.Fatalf("s.ts %v outside parent [%v, %v]", s.Ts, rootEv.Ts, rootEv.Ts+rootEv.Dur)
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("cat", "name", 0, 0)
	sp.End()
	if tr.Len() != 0 || tr.ChromeEvents() != nil {
		t.Fatal("nil tracer must be inert")
	}
}
