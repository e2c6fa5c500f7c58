package telemetry

import (
	"context"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()

	c := r.Counter("esse_test_total", "A counter.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("esse_test_total", "A counter."); again != c {
		t.Fatal("re-registration must return the same handle")
	}

	g := r.Gauge("esse_test_gauge", "A gauge.")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}

	// Distinct label values are distinct series of one family.
	done := r.Counter("esse_test_outcomes_total", "Labelled.", "outcome", "done")
	failed := r.Counter("esse_test_outcomes_total", "Labelled.", "outcome", "failed")
	if done == failed {
		t.Fatal("different label values must yield different series")
	}
	done.Add(3)
	failed.Add(1)
	if done.Value() != 3 || failed.Value() != 1 {
		t.Fatalf("series values = %d/%d, want 3/1", done.Value(), failed.Value())
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "nil registry hands out nil handles")
	g := r.Gauge("x", "")
	if c != nil || g != nil {
		t.Fatal("nil registry must return nil handles")
	}
	c.Inc()
	c.Add(7)
	g.Set(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil handles must read zero")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry scrape = %q, %v", sb.String(), err)
	}

	var tel *Telemetry
	if tel.Registry() != nil || tel.Events() != nil || tel.Tracer() != nil {
		t.Fatal("nil telemetry must hand out nil components")
	}
	tel.Counter("x_total", "").Inc()
	tel.Gauge("x", "").Set(1)
	tel.Emit("task", 0, 0, PhaseDone)
	sp := tel.Span("cat", "name", -1, 0)
	sp.End()
}

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic = %v, want substring %q", r, want)
		}
	}()
	f()
}

func TestRegistrationMisusePanics(t *testing.T) {
	r := NewRegistry()
	mustPanic(t, "invalid metric name", func() { r.Counter("bad name", "") })
	mustPanic(t, "odd label list", func() { r.Counter("x_total", "", "k") })
	mustPanic(t, "invalid label key", func() { r.Counter("x_total", "", "bad key", "v") })
	mustPanic(t, "invalid label key", func() { r.Counter("x_total", "", "le", "v") })
	mustPanic(t, "duplicate label key", func() { r.Counter("x_total", "", "a", "1", "a", "2") })
	mustPanic(t, "out of order", func() { r.Counter("x_total", "", "b", "1", "a", "2") })

	r.Counter("x_total", "")
	mustPanic(t, "registered as counter", func() { r.Gauge("x_total", "") })
}

// TestConcurrentUpdatesAndScrapes exercises the registry under the race
// detector: writers hammer every metric kind while readers scrape the
// text exposition, and every scrape must stay parseable.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	tel := New()
	c := tel.Counter("esse_race_total", "Racing counter.")
	g := tel.Gauge("esse_race_gauge", "Racing gauge.")

	const writers, iters, scrapes = 8, 2000, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
				tel.Emit("race", i, 0, PhaseDone)
				// Registration of an existing series must also be safe
				// concurrently with scrapes.
				tel.Counter("esse_race_total", "Racing counter.").Add(0)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < scrapes; i++ {
			var sb strings.Builder
			if err := tel.Registry().WritePrometheus(&sb); err != nil {
				t.Errorf("scrape %d: %v", i, err)
				return
			}
			if _, err := ParsePrometheus(strings.NewReader(sb.String())); err != nil {
				t.Errorf("scrape %d unparseable: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()

	if got := c.Value(); got != writers*iters {
		t.Fatalf("counter = %d, want %d", got, writers*iters)
	}
	// Every writer's last Set is iters-1, and so is the last Set of all.
	if got := g.Value(); got != iters-1 {
		t.Fatalf("gauge = %v, want %d", got, iters-1)
	}
}

// TestDisabledPathAllocations pins the zero-allocation guarantee of the
// disabled (nil) path and of the enabled hot-path updates, and the exact
// count of the enabled span and scrape paths.
func TestDisabledPathAllocations(t *testing.T) {
	var tel *Telemetry
	var c *Counter
	var g *Gauge
	var l *EventLog

	pin := func(name string, want float64, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(200, f); n != want {
			t.Errorf("%s: %v allocs/op, want %v", name, n, want)
		}
	}
	pin("nil Counter.Add", 0, func() { c.Add(1) })
	pin("nil Gauge.Set", 0, func() { g.Set(1) })
	pin("nil EventLog.Emit", 0, func() { l.Emit("member", 3, 0, PhaseRunning) })
	pin("nil Telemetry.Emit", 0, func() { tel.Emit("member", 3, 0, PhaseRunning) })
	pin("nil Telemetry.Span", 0, func() {
		sp := tel.Span("workflow", "member", 3, 1)
		sp.End()
	})
	ctx := context.Background()
	pin("nil Telemetry.SpanCtx", 0, func() {
		_, sp := tel.SpanCtx(ctx, "workflow", "member", 3, 1)
		sp.End()
	})

	// Enabled hot-path updates are also allocation-free (registration is
	// not: it happens once, outside the loops).
	on := New()
	ec := on.Counter("esse_alloc_total", "")
	eg := on.Gauge("esse_alloc_gauge", "")
	pin("enabled Counter.Add", 0, func() { ec.Add(1) })
	pin("enabled Gauge.Set", 0, func() { eg.Set(2) })
	pin("enabled EventLog.Emit", 0, func() { on.Emit("member", 3, 0, PhaseRunning) })

	// The rest of the enabled path costs a fixed count: the context that
	// carries a span (its node and the boxed Span) and the exposition of
	// two series.
	pin("enabled Telemetry.SpanCtx", 2, func() {
		_, sp := on.SpanCtx(ctx, "workflow", "member", 3, 1)
		sp.End()
	})
	scrape := New()
	scrape.Counter("esse_bench_scrape_total", "C.", "outcome", "done").Add(3)
	scrape.Gauge("esse_bench_scrape_gauge", "G.").Set(1.5)
	pin("WritePrometheus", 1, func() {
		if err := scrape.Registry().WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}
