package telemetry

import (
	"runtime"
	"runtime/metrics"
)

// runtimeGauges publishes Go runtime health — heap bytes, GC cycles
// and pause time, goroutine count — as gauges in a Registry. Mount
// registers them and the /metrics handler reads them on every scrape,
// so they are current at scrape time. Reads go through the
// runtime/metrics sample API, which does not stop the world the way
// runtime.ReadMemStats does.
type runtimeGauges struct {
	heap       *Gauge
	gcCycles   *Gauge
	gcPauseSec *Gauge
	goroutines *Gauge
}

// newRuntimeGauges registers the runtime gauges in t's registry.
func newRuntimeGauges(t *Telemetry) *runtimeGauges {
	return &runtimeGauges{
		heap:       t.Gauge("go_heap_objects_bytes", "Bytes of heap memory occupied by live plus unswept objects."),
		gcCycles:   t.Gauge("go_gc_cycles_total", "Completed GC cycles since process start."),
		gcPauseSec: t.Gauge("go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause seconds."),
		goroutines: t.Gauge("go_goroutines", "Number of live goroutines."),
	}
}

// read samples the runtime metrics and updates the gauges. Each call
// reads into its own sample slice, so concurrent scrapes share nothing
// but the atomic gauges. (metrics.Read writes from inside the runtime,
// where the race detector cannot see it: a shared slice would need a
// lock that no -race test could pin.)
func (r *runtimeGauges) read() {
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(samples)
	if v := samples[0].Value; v.Kind() == metrics.KindUint64 {
		r.heap.Set(float64(v.Uint64()))
	}
	if v := samples[1].Value; v.Kind() == metrics.KindUint64 {
		r.gcCycles.Set(float64(v.Uint64()))
	}
	if v := samples[2].Value; v.Kind() == metrics.KindFloat64Histogram {
		r.gcPauseSec.Set(histTotalSeconds(v.Float64Histogram()))
	}
	r.goroutines.Set(float64(runtime.NumGoroutine()))
}

// histTotalSeconds approximates the cumulative seconds in a
// runtime/metrics float64 histogram by summing count × bucket midpoint
// (edge buckets use their finite bound).
func histTotalSeconds(h *metrics.Float64Histogram) float64 {
	if h == nil {
		return 0
	}
	total := 0.0
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		if isInfOrNaN(lo) {
			mid = hi
		} else if isInfOrNaN(hi) {
			mid = lo
		}
		total += float64(n) * mid
	}
	return total
}

func isInfOrNaN(v float64) bool {
	// NaN self-inequality plus infinity bound checks; floatcmp exempts
	// the identical-operand idiom.
	return v != v || v > 1e300 || v < -1e300
}
