package main

import (
	"sort"
	"sync"
	"time"
)

// span is one crossing from bench/ into a layer of the program. Spans
// are recorded only by the traced run, kept in memory and written when
// the workload ends.
type span struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Cycle    int    `json:"cycle"` // -1 outside a cycle
	Item     int    `json:"item"`  // member index or task number, -1 if none
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// at says where in the run a span belongs.
type at struct {
	parent, rep, cycle, item int
}

func root(rep int) at { return at{rep: rep, cycle: -1, item: -1} }

func (a at) under(parent int) at { a.parent = parent; return a }
func (a at) inCycle(k int) at    { a.cycle = k; return a }
func (a at) forItem(i int) at    { a.item = i; return a }

// tracer collects spans. A nil *tracer is the timed run: begin and end
// do nothing, so the code under measurement is the same in both runs.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its id, 0 from a nil tracer.
func (t *tracer) begin(layer, name string, a at) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(layer, name, a, now, now)
}

// add records a span whose start (and perhaps end) is already known.
func (t *tracer) add(layer, name string, a at, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, ID: id,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
		Parent: a.parent, Workload: t.workload, Rep: a.rep, Cycle: a.cycle, Item: a.item,
	})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// named returns the spans with the given name, in the order they were
// opened.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// clock runs fn, records it as a span when tracing, and returns its
// wall time in seconds either way.
func (t *tracer) clock(layer, name string, a at, fn func()) float64 {
	id := t.begin(layer, name, a)
	start := time.Now()
	fn()
	d := time.Since(start).Seconds()
	t.end(id)
	return d
}

// selfSeconds sums, per layer, each span's duration minus the part of
// it that its child spans cover. Children of one span may overlap
// (pool workers), so coverage is the union of their intervals.
func selfSeconds(spans []span) map[string]float64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, hi := int64(0), s.StartNS
		for _, c := range iv {
			lo, end := max(c[0], hi), min(c[1], s.EndNS)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.Layer] += float64(s.EndNS-s.StartNS-covered) / 1e9
	}
	return self
}
