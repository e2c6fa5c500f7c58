package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing series. The nil *Counter is a
// no-op, so disabled telemetry costs one predictable branch.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on the nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a series that can go up and down, stored as float64 bits.
// The nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge reading (0 on the nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// series is one label combination of a family.
type series struct {
	labels string // rendered `k="v",k2="v2"` form, "" for unlabelled
	c      *Counter
	g      *Gauge
}

// family is one metric name: a help string, a kind and its series.
type family struct {
	name, help string
	kind       metricKind
	byLabel    map[string]*series
	ordered    []*series // sorted by labels, maintained on insert
}

// Registry holds metric families. Registration (Counter/Gauge) takes
// the registry lock and may allocate; the returned
// handles update lock-free. The nil *Registry hands out nil handles,
// making the whole disabled path allocation-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // sorted family names, maintained on insert
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Counter registers (or fetches) a counter series. labelKV alternates
// label keys and values; keys must be compile-time constants, sorted
// and distinct (enforced here — misuse panics, it is a programming
// error).
func (r *Registry) Counter(name, help string, labelKV ...string) *Counter {
	if r == nil {
		return nil
	}
	s := r.getOrCreate(name, help, kindCounter, labelKV)
	return s.c
}

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name, help string, labelKV ...string) *Gauge {
	if r == nil {
		return nil
	}
	s := r.getOrCreate(name, help, kindGauge, labelKV)
	return s.g
}

func (r *Registry) getOrCreate(name, help string, kind metricKind, labelKV []string) *series {
	if !validMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	labels := renderLabels(labelKV)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: kind, byLabel: map[string]*series{}}
		r.families[name] = fam
		i := sort.SearchStrings(r.names, name)
		r.names = append(r.names, "")
		copy(r.names[i+1:], r.names[i:])
		r.names[i] = name
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %v, requested as %v", name, fam.kind, kind))
	}
	if s := fam.byLabel[labels]; s != nil {
		return s
	}
	s := &series{labels: labels}
	switch kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	}
	fam.byLabel[labels] = s
	i := sort.Search(len(fam.ordered), func(i int) bool { return fam.ordered[i].labels >= labels })
	fam.ordered = append(fam.ordered, nil)
	copy(fam.ordered[i+1:], fam.ordered[i:])
	fam.ordered[i] = s
	return s
}

// renderLabels validates the key/value pairing discipline and renders
// the canonical `k="v"` comma-joined form used as the series key.
func renderLabels(labelKV []string) string {
	if len(labelKV) == 0 {
		return ""
	}
	if len(labelKV)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list (%d items): keys and values must alternate", len(labelKV)))
	}
	out := make([]byte, 0, 64)
	for i := 0; i < len(labelKV); i += 2 {
		k, v := labelKV[i], labelKV[i+1]
		if !validLabelKey(k) {
			panic(fmt.Sprintf("telemetry: invalid label key %q", k))
		}
		if i > 0 {
			prev := labelKV[i-2]
			if k == prev {
				panic(fmt.Sprintf("telemetry: duplicate label key %q", k))
			}
			if k < prev {
				panic(fmt.Sprintf("telemetry: label keys out of order: %q after %q", k, prev))
			}
			out = append(out, ',')
		}
		out = append(out, k...)
		out = append(out, '=', '"')
		out = appendEscaped(out, v)
		out = append(out, '"')
	}
	return string(out)
}

// appendEscaped escapes backslash, double quote and newline per the
// Prometheus text exposition rules.
func appendEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '"':
			dst = append(dst, '\\', '"')
		case '\n':
			dst = append(dst, '\\', 'n')
		default:
			dst = append(dst, s[i])
		}
	}
	return dst
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelKey(s string) bool {
	if s == "" || s == "le" { // Prometheus reserves le for histogram buckets
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
