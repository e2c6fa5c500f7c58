package forensics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"esse/internal/telemetry"
)

// buildTrace exports a small but realistic span tree through the real
// tracer: cycle -> {member-0 -> save-state, member-1} so the decode
// side is exercised against the genuine /trace encoding.
func buildTrace(t *testing.T) *bytes.Buffer {
	t.Helper()
	tr := telemetry.NewTracer()
	tr.SetTraceID(telemetry.DeriveTraceID(7))

	cycle := tr.StartChild(telemetry.SpanContext{}, "realtime", "cycle", 0, 0)
	time.Sleep(time.Millisecond)
	m0 := tr.StartChild(cycle.Context(), "workflow", "member", 0, 1)
	time.Sleep(time.Millisecond)
	save := tr.StartChild(m0.Context(), "jobdir", "save-state", 0, 1)
	save.End()
	m0.End()
	m1 := tr.StartChild(cycle.Context(), "workflow", "member", 1, 2)
	time.Sleep(2 * time.Millisecond)
	m1.End()
	cycle.End()

	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, tr.ChromeEvents()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	return &buf
}

func TestParseTraceRebuildsTree(t *testing.T) {
	tree, err := ParseTrace(buildTrace(t))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if len(tree.Roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(tree.Roots))
	}
	if len(tree.Orphans) != 0 {
		t.Fatalf("orphans = %v, want none", tree.Orphans)
	}
	root := tree.Roots[0]
	if root.Name != "cycle-0" || root.Cat != "realtime" {
		t.Fatalf("root = %s/%s, want realtime/cycle-0", root.Cat, root.Name)
	}
	if len(root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(root.Children))
	}
	// Every span's parent chain must resolve back to the cycle root.
	for id, sp := range tree.ByID {
		chainRoot, ok := tree.RootChain(sp)
		if !ok || chainRoot != root {
			t.Errorf("span %s (%s) does not chain to root", id, sp.Name)
		}
		if sp.TraceID != root.TraceID {
			t.Errorf("span %s trace %s != root trace %s", id, sp.TraceID, root.TraceID)
		}
	}
	if got := tree.ByID[root.Children[0].SpanID].Base(); got != "member" {
		t.Errorf("Base() = %q, want member", got)
	}
}

func TestParseTraceDetectsOrphans(t *testing.T) {
	// A child pointing at a parent span that never finished locally.
	const body = `[
	 {"name":"member-0","cat":"workflow","ph":"X","ts":10,"dur":5,"pid":1,"tid":1,
	  "args":{"trace_id":"00000000000000010000000000000002","span_id":"0000000000000005","parent_span_id":"00000000000000ff"}}
	]`
	tree, err := ParseTrace(strings.NewReader(body))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if len(tree.Orphans) != 1 || tree.Orphans[0].SpanID != "0000000000000005" {
		t.Fatalf("orphans = %v, want the one dangling span", tree.Orphans)
	}
	if _, ok := tree.RootChain(tree.Orphans[0]); ok {
		t.Fatal("RootChain resolved an orphaned chain")
	}
	d := BuildDigest(tree, nil, nil)
	if len(d.Orphans) != 1 {
		t.Fatalf("digest orphans = %v, want 1", d.Orphans)
	}
}

func TestParseTraceRejectsDuplicateSpanIDs(t *testing.T) {
	const body = `[
	 {"name":"a","ph":"X","ts":0,"dur":1,"pid":1,"tid":0,"args":{"trace_id":"t","span_id":"0000000000000001"}},
	 {"name":"b","ph":"X","ts":0,"dur":1,"pid":1,"tid":0,"args":{"trace_id":"t","span_id":"0000000000000001"}}
	]`
	if _, err := ParseTrace(strings.NewReader(body)); err == nil {
		t.Fatal("duplicate span ids accepted")
	}
}

func TestParseTraceSkipsNonSpanEvents(t *testing.T) {
	// Flow events, paper-time rows (pid 2) and argless events must not
	// become spans.
	const body = `[
	 {"name":"parent","cat":"flow","ph":"s","ts":1,"pid":1,"tid":0,"id":"x"},
	 {"name":"ocean","ph":"X","ts":0,"dur":9,"pid":2,"tid":0},
	 {"name":"bare","ph":"X","ts":0,"dur":9,"pid":1,"tid":0}
	]`
	tree, err := ParseTrace(strings.NewReader(body))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if len(tree.ByID) != 0 {
		t.Fatalf("spans = %d, want 0", len(tree.ByID))
	}
}

func TestDigestPhasesAndCriticalPath(t *testing.T) {
	tree, err := ParseTrace(buildTrace(t))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	d := BuildDigest(tree, nil, nil)
	if len(d.Cycles) != 1 {
		t.Fatalf("cycles = %d, want 1", len(d.Cycles))
	}
	c := d.Cycles[0]
	if c.Members != 2 {
		t.Errorf("members = %d, want 2", c.Members)
	}
	if c.Spans != 4 {
		t.Errorf("cycle spans = %d, want 4", c.Spans)
	}
	var member *PhaseStat
	for i := range c.Phases {
		if c.Phases[i].Name == "member" {
			member = &c.Phases[i]
		}
	}
	if member == nil || member.Count != 2 {
		t.Fatalf("member phase stat = %+v, want count 2", member)
	}
	if len(c.CriticalPath) < 2 {
		t.Fatalf("critical path = %v, want at least cycle->member", c.CriticalPath)
	}
	if c.CriticalPath[0].Name != "cycle-0" {
		t.Errorf("critical path starts at %s, want cycle-0", c.CriticalPath[0].Name)
	}
	// member-1 started after member-0 finished, so it bounds the cycle.
	if c.CriticalPath[1].Name != "member-1" {
		t.Errorf("critical path hop 1 = %s, want member-1", c.CriticalPath[1].Name)
	}
}

func TestDigestMergesEventsAndMetrics(t *testing.T) {
	tree, err := ParseTrace(buildTrace(t))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	page := &telemetry.EventsPage{
		Total:  5,
		Oldest: 1,
		Events: []telemetry.Event{
			{Task: "member", Index: 0, Phase: telemetry.PhaseRetried, Attempt: 1},
			{Task: "member", Index: 0, Phase: telemetry.PhaseDone, Attempt: 2},
			{Task: "member", Index: 1, Phase: telemetry.PhaseCancelled},
			{Task: "member", Index: 2, Phase: telemetry.PhaseFailed},
		},
	}
	exp, err := telemetry.ParsePrometheus(strings.NewReader(
		"# TYPE esse_member_retries_total counter\n" +
			"esse_member_retries_total 3\n" +
			"# TYPE esse_rt_cycle_seconds gauge\n" +
			"esse_rt_cycle_seconds 1.5\n"))
	if err != nil {
		t.Fatalf("ParsePrometheus: %v", err)
	}
	d := BuildDigest(tree, page, exp)
	a := d.Audit
	if a.Done != 1 || a.Failed != 1 || a.Cancelled != 1 || a.Retried != 1 || a.MaxAttempt != 2 || a.Lost != 1 {
		t.Errorf("audit = %+v", a)
	}
	if d.Counters["esse_member_retries_total"] != 3 {
		t.Errorf("counters = %v, want retries 3", d.Counters)
	}
	if _, ok := d.Counters["esse_rt_cycle_seconds"]; ok {
		t.Error("gauge leaked into counter totals")
	}
	if len(d.Warnings) == 0 {
		t.Error("lost events produced no warning")
	}
}

func TestDigestRoundTrip(t *testing.T) {
	tree, err := ParseTrace(buildTrace(t))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	d := BuildDigest(tree, nil, nil)
	var buf bytes.Buffer
	if err := WriteDigest(&buf, d); err != nil {
		t.Fatalf("WriteDigest: %v", err)
	}
	var back Digest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("decoding the digest: %v", err)
	}
	if back.TraceID != d.TraceID || back.Spans != d.Spans || len(back.Cycles) != len(d.Cycles) {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, d)
	}
	if back.Cycles[0].CriticalPath[0].SpanID != d.Cycles[0].CriticalPath[0].SpanID {
		t.Fatal("critical path lost in round trip")
	}
}

func TestCheckFinite(t *testing.T) {
	if err := checkFinite("dur_ms", 1.5); err != nil {
		t.Fatalf("finite value rejected: %v", err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := checkFinite("dur_ms", v); err == nil || !strings.Contains(err.Error(), "dur_ms") {
			t.Fatalf("checkFinite(%v) = %v, want an error naming the field", v, err)
		}
	}
}

// Validate must reject a non-finite value in every float field of the
// digest, naming it: json.Marshal would fail on it without saying where.
func TestValidateNamesEveryFloatField(t *testing.T) {
	fields := []struct {
		name string // the error names both the record and the field
		set  func(*Digest, float64)
	}{
		{"cycle c: field start_ms", func(d *Digest, v float64) { d.Cycles[0].StartMS = v }},
		{"cycle c: field dur_ms", func(d *Digest, v float64) { d.Cycles[0].DurMS = v }},
		{"phase w/p: field total_ms", func(d *Digest, v float64) { d.Cycles[0].Phases[0].TotalMS = v }},
		{"phase w/p: field max_ms", func(d *Digest, v float64) { d.Cycles[0].Phases[0].MaxMS = v }},
		{"path step s: field start_ms", func(d *Digest, v float64) { d.Cycles[0].CriticalPath[0].StartMS = v }},
		{"path step s: field dur_ms", func(d *Digest, v float64) { d.Cycles[0].CriticalPath[0].DurMS = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			d := &Digest{Cycles: []CycleDigest{{
				Root:         "c",
				Phases:       []PhaseStat{{Cat: "w", Name: "p"}},
				CriticalPath: []PathStep{{Name: "s"}},
			}}}
			if err := d.Validate(); err != nil {
				t.Fatalf("finite digest rejected: %v", err)
			}
			f.set(d, v)
			if err := d.Validate(); err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %v: Validate() = %v, want an error naming it", f.name, v, err)
			}
		}
	}
}

func TestRenderTextMentionsEverySection(t *testing.T) {
	tree, err := ParseTrace(buildTrace(t))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	out := RenderText(BuildDigest(tree, nil, nil))
	for _, want := range []string{"cycle-0", "workflow/member", "critical path:", "audit:"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered digest missing %q:\n%s", want, out)
		}
	}
}

func TestBaseName(t *testing.T) {
	cases := map[string]string{
		"member-17":   "member",
		"cycle-0":     "cycle",
		"svd":         "svd",
		"save-state":  "save-state",
		"tl-task-123": "tl-task",
		"x-":          "x-",
	}
	for in, want := range cases {
		if got := baseName(in); got != want {
			t.Errorf("baseName(%q) = %q, want %q", in, got, want)
		}
	}
}
