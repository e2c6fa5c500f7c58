package telemetry

import (
	"net/http"
	"strings"
	"sync"
	"testing"
)

var runtimeFamilies = []string{
	"go_heap_objects_bytes", "go_gc_cycles_total", "go_gc_pause_seconds_total", "go_goroutines",
}

// TestRuntimeSampler pins that the runtime gauges are sampled at
// scrape time: a /metrics scrape through the mounted mux carries all
// four go_* families.
func TestRuntimeSampler(t *testing.T) {
	tel := New()
	mux := http.NewServeMux()
	tel.Mount(mux)
	exp, err := ParsePrometheus(get(t, mux, "/metrics").Body)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := exp.Value("go_goroutines"); !ok || v < 1 {
		t.Fatalf("go_goroutines = %v, %v", v, ok)
	}
	if v, ok := exp.Value("go_heap_objects_bytes"); !ok || v <= 0 {
		t.Fatalf("go_heap_objects_bytes = %v, %v", v, ok)
	}
	for _, name := range runtimeFamilies {
		if _, ok := exp.Value(name); !ok {
			t.Fatalf("%s missing from the scrape", name)
		}
	}
}

// TestRuntimeSamplerDisabled pins that nothing samples the runtime
// until Mount: a registry has no go_* family before it, and mounting a
// nil *Telemetry registers none.
func TestRuntimeSamplerDisabled(t *testing.T) {
	tel := New()
	exp, err := ParsePrometheus(strings.NewReader(scrapeString(t, tel.Registry())))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range runtimeFamilies {
		if _, ok := exp.Value(name); ok {
			t.Fatalf("%s registered before Mount", name)
		}
	}

	var nilTel *Telemetry
	mux := http.NewServeMux()
	nilTel.Mount(mux)
	if rec := get(t, mux, "/metrics"); rec.Code != http.StatusNotFound {
		t.Fatalf("nil telemetry /metrics status = %d, want 404", rec.Code)
	}
}

// TestConcurrentScrapes runs several /metrics scrapes on one mounted
// mux at once. Under -race it pins that a scrape shares no unguarded
// state with another.
func TestConcurrentScrapes(t *testing.T) {
	tel := New()
	mux := http.NewServeMux()
	tel.Mount(mux)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				exp, err := ParsePrometheus(get(t, mux, "/metrics").Body)
				if err != nil {
					t.Error(err)
					return
				}
				if v, ok := exp.Value("go_goroutines"); !ok || v < 1 {
					t.Errorf("go_goroutines = %v, %v", v, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}
