// Package forensics reconstructs what a run actually did from its
// exported observability artifacts. The three telemetry endpoints —
// /trace (Chrome trace-event JSON), /events (lifecycle log) and
// /metrics (Prometheus exposition) — each tell part of the story;
// forensics merges them into one per-cycle Digest: phase timing
// breakdown, critical-path extraction, retry/cancel audit and
// orphan-span detection. It is the post-mortem counterpart of the live
// endpoints, the "check the error-code files after the run" workflow
// of the paper's Section 4.2 applied to traces instead of job
// directories.
package forensics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"esse/internal/telemetry"
)

// Span is one reconstructed wall-clock span.
type Span struct {
	Name    string  // exported name, e.g. "member-3"
	Cat     string  // category, e.g. "workflow"
	TraceID string  // 32-hex trace identity
	SpanID  string  // 16-hex span identity
	Parent  string  // parent span id ("" on roots)
	Lane    int64   // exporter lane (tid)
	StartUS float64 // microseconds since tracer start
	DurUS   float64 // microseconds

	Children []*Span
}

// EndUS returns the span's end timestamp in microseconds.
func (s *Span) EndUS() float64 { return s.StartUS + s.DurUS }

// Base returns the span name with any trailing "-<id>" stripped:
// "member-17" groups as "member".
func (s *Span) Base() string { return baseName(s.Name) }

func baseName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// Tree is the reconstructed span forest of one trace export.
type Tree struct {
	Roots   []*Span          // spans without a parent, by start time
	Orphans []*Span          // spans whose recorded parent never finished locally
	ByID    map[string]*Span // every wall-clock span by span id
}

// ParseTrace decodes a Chrome trace-event JSON body and rebuilds the
// span forest. Only wall-clock complete events that carry a span
// identity participate; flow events, paper-time rows and
// foreign events are skipped. A span whose parent_span_id does not
// resolve is kept — as a root for timing purposes — and also reported
// in Orphans, the causal-soundness failure the smoke test checks for.
func ParseTrace(r io.Reader) (*Tree, error) {
	// id and bp are read raw and ignored: a foreign flow event may write
	// its id as a number, which ChromeEvent's string field would reject.
	var raw []struct {
		telemetry.ChromeEvent
		ID json.RawMessage `json:"id"`
		BP json.RawMessage `json:"bp"`
	}
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, fmt.Errorf("forensics: decoding trace: %w", err)
	}
	tree := &Tree{ByID: make(map[string]*Span)}
	var spans []*Span
	for _, e := range raw {
		if e.Ph != "X" || e.Pid != 1 || e.Args == nil || e.Args.SpanID == "" {
			continue
		}
		// A trace with non-finite timestamps cannot be digested (and
		// could not be re-encoded); reject it rather than propagate.
		if err := checkFinite("ts", e.Ts); err != nil {
			return nil, fmt.Errorf("forensics: span %s: %w", e.Args.SpanID, err)
		}
		if err := checkFinite("dur", e.Dur); err != nil {
			return nil, fmt.Errorf("forensics: span %s: %w", e.Args.SpanID, err)
		}
		sp := &Span{
			Name:    e.Name,
			Cat:     e.Cat,
			TraceID: e.Args.TraceID,
			SpanID:  e.Args.SpanID,
			Parent:  e.Args.ParentSpan,
			Lane:    e.Tid,
			StartUS: e.Ts,
			DurUS:   e.Dur,
		}
		if prev, dup := tree.ByID[sp.SpanID]; dup {
			return nil, fmt.Errorf("forensics: duplicate span id %s (%s and %s)", sp.SpanID, prev.Name, sp.Name)
		}
		tree.ByID[sp.SpanID] = sp
		spans = append(spans, sp)
	}
	for _, sp := range spans {
		if sp.Parent == "" {
			tree.Roots = append(tree.Roots, sp)
			continue
		}
		parent, ok := tree.ByID[sp.Parent]
		if !ok {
			tree.Orphans = append(tree.Orphans, sp)
			tree.Roots = append(tree.Roots, sp)
			continue
		}
		parent.Children = append(parent.Children, sp)
	}
	byStart := func(list []*Span) {
		sort.Slice(list, func(a, b int) bool {
			//esselint:allow floatcmp exact comparison: equal starts must fall through to the span-id tiebreaker
			if list[a].StartUS != list[b].StartUS {
				return list[a].StartUS < list[b].StartUS
			}
			return list[a].SpanID < list[b].SpanID
		})
	}
	byStart(tree.Roots)
	byStart(tree.Orphans)
	for _, sp := range spans {
		byStart(sp.Children)
	}
	return tree, nil
}

// RootChain walks parent links from sp to its root. It returns the
// chain root and true when every hop resolved, or the last reachable
// ancestor and false when a parent id was missing (an orphaned chain).
func (t *Tree) RootChain(sp *Span) (*Span, bool) {
	seen := map[string]bool{}
	for sp.Parent != "" {
		if seen[sp.SpanID] {
			return sp, false // defensive: a cycle is as unsound as a hole
		}
		seen[sp.SpanID] = true
		parent, ok := t.ByID[sp.Parent]
		if !ok {
			return sp, false
		}
		sp = parent
	}
	return sp, true
}

// PhaseStat aggregates one kind of span ("workflow/member") inside a
// cycle subtree.
type PhaseStat struct {
	Cat     string  `json:"cat"`
	Name    string  `json:"name"` // base name, id suffix stripped
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// PathStep is one hop of a critical path.
type PathStep struct {
	Cat     string  `json:"cat"`
	Name    string  `json:"name"`
	SpanID  string  `json:"span_id"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

// CycleDigest summarizes one root span's subtree — normally a
// realtime forecast cycle, but any causal root (an mtc-sim run, an
// acoustic climate pool) digests the same way.
type CycleDigest struct {
	Root         string      `json:"root"` // root span name, e.g. "cycle-0"
	Cat          string      `json:"cat"`
	SpanID       string      `json:"span_id"`
	StartMS      float64     `json:"start_ms"`
	DurMS        float64     `json:"dur_ms"`
	Spans        int         `json:"spans"`
	Members      int         `json:"members"`
	Phases       []PhaseStat `json:"phases"`
	CriticalPath []PathStep  `json:"critical_path"`
}

// RetryAudit counts lifecycle outcomes from the /events log.
type RetryAudit struct {
	Done       int   `json:"done"`
	Failed     int   `json:"failed"`
	Cancelled  int   `json:"cancelled"`
	Retried    int   `json:"retried"`
	MaxAttempt int   `json:"max_attempt"`
	Lost       int64 `json:"lost"` // events dropped to ring wraparound
}

// Digest is the merged post-run forensic summary.
type Digest struct {
	TraceID  string             `json:"trace_id"`
	Spans    int                `json:"spans"`
	Roots    int                `json:"roots"`
	Orphans  []string           `json:"orphans"` // span ids with unresolvable parents
	Warnings []string           `json:"warnings,omitempty"`
	Cycles   []CycleDigest      `json:"cycles"`
	Audit    RetryAudit         `json:"audit"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// BuildDigest merges the three artifact views. events and exp may be
// nil when only the trace was captured; tree must be non-nil.
func BuildDigest(tree *Tree, events *telemetry.EventsPage, exp *telemetry.Exposition) *Digest {
	d := &Digest{
		Spans:   len(tree.ByID),
		Roots:   len(tree.Roots),
		Orphans: []string{},
		Cycles:  []CycleDigest{},
	}
	for _, sp := range tree.Orphans {
		d.Orphans = append(d.Orphans, sp.SpanID)
	}
	traces := map[string]bool{}
	for _, sp := range tree.ByID {
		traces[sp.TraceID] = true
	}
	if len(tree.Roots) > 0 {
		d.TraceID = tree.Roots[0].TraceID
	}
	if len(traces) > 1 {
		d.Warnings = append(d.Warnings, fmt.Sprintf("trace mixes %d trace ids", len(traces)))
	}
	for _, root := range tree.Roots {
		d.Cycles = append(d.Cycles, digestCycle(root))
	}
	if events != nil {
		d.Audit = auditEvents(events)
		if d.Audit.Lost > 0 {
			d.Warnings = append(d.Warnings, fmt.Sprintf("event ring dropped %d events", d.Audit.Lost))
		}
	}
	if exp != nil {
		d.Counters = counterTotals(exp)
	}
	return d
}

func digestCycle(root *Span) CycleDigest {
	c := CycleDigest{
		Root:    root.Name,
		Cat:     root.Cat,
		SpanID:  root.SpanID,
		StartMS: root.StartUS / 1e3,
		DurMS:   root.DurUS / 1e3,
	}
	stats := map[string]*PhaseStat{}
	var walk func(sp *Span)
	walk = func(sp *Span) {
		c.Spans++
		key := sp.Cat + "/" + sp.Base()
		st, ok := stats[key]
		if !ok {
			st = &PhaseStat{Cat: sp.Cat, Name: sp.Base()}
			stats[key] = st
		}
		st.Count++
		ms := sp.DurUS / 1e3
		st.TotalMS += ms
		if ms > st.MaxMS {
			st.MaxMS = ms
		}
		if sp.Cat == "workflow" && sp.Base() == "member" {
			c.Members++
		}
		for _, ch := range sp.Children {
			walk(ch)
		}
	}
	walk(root)
	for _, st := range stats {
		c.Phases = append(c.Phases, *st)
	}
	sort.Slice(c.Phases, func(a, b int) bool {
		//esselint:allow floatcmp exact comparison: equal totals must fall through to the name tiebreaker
		if c.Phases[a].TotalMS != c.Phases[b].TotalMS {
			return c.Phases[a].TotalMS > c.Phases[b].TotalMS
		}
		return c.Phases[a].Cat+"/"+c.Phases[a].Name < c.Phases[b].Cat+"/"+c.Phases[b].Name
	})
	c.CriticalPath = criticalPath(root)
	return c
}

// criticalPath descends from root to the child whose end time is
// latest at every level — the chain that bounded the cycle's makespan,
// the trace analogue of the paper's slowest-member analysis.
func criticalPath(root *Span) []PathStep {
	var path []PathStep
	for sp := root; sp != nil; {
		path = append(path, PathStep{
			Cat:     sp.Cat,
			Name:    sp.Name,
			SpanID:  sp.SpanID,
			StartMS: sp.StartUS / 1e3,
			DurMS:   sp.DurUS / 1e3,
		})
		var next *Span
		for _, ch := range sp.Children {
			if next == nil || ch.EndUS() > next.EndUS() {
				next = ch
			}
		}
		sp = next
	}
	return path
}

func auditEvents(page *telemetry.EventsPage) RetryAudit {
	a := RetryAudit{Lost: page.Oldest}
	for _, e := range page.Events {
		switch e.Phase {
		case telemetry.PhaseDone:
			a.Done++
		case telemetry.PhaseFailed:
			a.Failed++
		case telemetry.PhaseCancelled:
			a.Cancelled++
		case telemetry.PhaseRetried:
			a.Retried++
		default:
			// Non-terminal stations (queued/dispatched/running) carry no
			// outcome; the audit counts how tasks ended, not how they ran.
		}
		if e.Attempt > a.MaxAttempt {
			a.MaxAttempt = e.Attempt
		}
	}
	return a
}

// counterTotals sums every counter family in the exposition — the
// headline numbers (tasks done, retries, bytes served) that belong in
// a digest without dragging the whole exposition along.
func counterTotals(exp *telemetry.Exposition) map[string]float64 {
	out := map[string]float64{}
	for _, f := range exp.Families {
		if f.Type != "counter" {
			continue
		}
		sum := 0.0
		for _, s := range f.Samples {
			sum += s.Value
		}
		out[f.Name] = sum
	}
	return out
}

// checkFinite returns an error naming field when v is NaN or ±Inf.
func checkFinite(field string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("field %s is not finite (%v)", field, v)
	}
	return nil
}

// Validate checks every numeric field of the digest is finite:
// json.Marshal fails on NaN/Inf, so WriteDigest runs this first to fail
// with a named field.
func (d *Digest) Validate() error {
	for _, c := range d.Cycles {
		if err := checkFinite("start_ms", c.StartMS); err != nil {
			return fmt.Errorf("forensics: cycle %s: %w", c.Root, err)
		}
		if err := checkFinite("dur_ms", c.DurMS); err != nil {
			return fmt.Errorf("forensics: cycle %s: %w", c.Root, err)
		}
		for _, p := range c.Phases {
			if err := checkFinite("total_ms", p.TotalMS); err != nil {
				return fmt.Errorf("forensics: phase %s/%s: %w", p.Cat, p.Name, err)
			}
			if err := checkFinite("max_ms", p.MaxMS); err != nil {
				return fmt.Errorf("forensics: phase %s/%s: %w", p.Cat, p.Name, err)
			}
		}
		for _, s := range c.CriticalPath {
			if err := checkFinite("start_ms", s.StartMS); err != nil {
				return fmt.Errorf("forensics: path step %s: %w", s.Name, err)
			}
			if err := checkFinite("dur_ms", s.DurMS); err != nil {
				return fmt.Errorf("forensics: path step %s: %w", s.Name, err)
			}
		}
	}
	return nil
}

// WriteDigest validates and writes the digest as indented JSON.
func WriteDigest(w io.Writer, d *Digest) error {
	if err := d.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("forensics: encoding digest: %w", err)
	}
	return nil
}

// RenderText formats the digest as the human-readable report
// esse-report prints: one block per cycle with its phase table and
// critical path, then the audit and warnings.
func RenderText(d *Digest) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s: %d spans, %d roots, %d orphans\n",
		d.TraceID, d.Spans, d.Roots, len(d.Orphans))
	for _, c := range d.Cycles {
		fmt.Fprintf(&b, "\n%s/%s (%d spans, %d members, %.1f ms)\n",
			c.Cat, c.Root, c.Spans, c.Members, c.DurMS)
		for _, p := range c.Phases {
			fmt.Fprintf(&b, "  %-28s x%-5d total %9.2f ms  max %9.2f ms\n",
				p.Cat+"/"+p.Name, p.Count, p.TotalMS, p.MaxMS)
		}
		b.WriteString("  critical path:")
		for i, s := range c.CriticalPath {
			if i > 0 {
				b.WriteString(" ->")
			}
			fmt.Fprintf(&b, " %s(%.1fms)", s.Name, s.DurMS)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\naudit: done %d, failed %d, cancelled %d, retried %d (max attempt %d)\n",
		d.Audit.Done, d.Audit.Failed, d.Audit.Cancelled, d.Audit.Retried, d.Audit.MaxAttempt)
	for _, w := range d.Warnings {
		fmt.Fprintf(&b, "warning: %s\n", w)
	}
	if len(d.Orphans) > 0 {
		fmt.Fprintf(&b, "orphan spans: %s\n", strings.Join(d.Orphans, " "))
	}
	return b.String()
}
