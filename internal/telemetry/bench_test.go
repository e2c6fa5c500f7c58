package telemetry

import (
	"context"
	"io"
	"log/slog"
	"testing"
	"time"
)

// The benchmarks time the paths whose allocation counts
// TestDisabledPathAllocations and TestDisabledLoggingAllocations pin.

func BenchmarkCounterAdd(b *testing.B) {
	c := New().Counter("esse_bench_total", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddDisabled(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	g := New().Gauge("esse_bench_gauge", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkEventLogEmit(b *testing.B) {
	l := NewEventLog(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Emit("member", i, 0, PhaseDone)
	}
}

func BenchmarkEventLogEmitDisabled(b *testing.B) {
	var l *EventLog
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Emit("member", i, 0, PhaseDone)
	}
}

func BenchmarkSpanStartEndDisabled(b *testing.B) {
	var tel *Telemetry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tel.Span("workflow", "member", int64(i), 0)
		sp.End()
	}
}

func BenchmarkSpanCtxDisabled(b *testing.B) {
	var tel *Telemetry
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := tel.SpanCtx(ctx, "workflow", "member", int64(i), 1)
		sp.End()
	}
}

func BenchmarkSpanCtxEnabled(b *testing.B) {
	tel := New()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := tel.SpanCtx(ctx, "workflow", "member", int64(i), 1)
		sp.End()
	}
}

func BenchmarkLoggerDisabled(b *testing.B) {
	var lg *Logger
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg.Info("cycle complete", "cycle", i, "converged", true, "elapsed", time.Second)
	}
}

func BenchmarkLoggerEnabled(b *testing.B) {
	lg := NewLogger(io.Discard, slog.LevelInfo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg.Info("cycle complete", "cycle", i, "converged", true, "elapsed", time.Second)
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	tel := New()
	tel.Counter("esse_bench_scrape_total", "C.", "outcome", "done").Add(3)
	tel.Gauge("esse_bench_scrape_gauge", "G.").Set(1.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tel.Registry().WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
