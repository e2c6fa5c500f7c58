package telemetry

import (
	"bytes"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestLoggerWritesStructuredLines(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelInfo)
	lg.Info("cycle complete", "cycle", 3, "converged", true, "elapsed", 2*time.Second, "rho", 0.9)
	line := buf.String()
	for _, want := range []string{"msg=\"cycle complete\"", "cycle=3", "converged=true", "elapsed=2s", "rho=0.9", "level=INFO"} {
		if !strings.Contains(line, want) {
			t.Errorf("line missing %q: %s", want, line)
		}
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelWarn)
	lg.Debug("d")
	lg.Info("i")
	if buf.Len() != 0 {
		t.Fatalf("below-min levels wrote: %s", buf.String())
	}
	lg.Error("e", "err", errors.New("boom").Error())
	out := buf.String()
	if !strings.Contains(out, "level=ERROR") || !strings.Contains(out, "err=boom") {
		t.Fatalf("output = %s", out)
	}
}

func TestLoggerMalformedKV(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelInfo)
	lg.Info("odd", "dangling")
	if !strings.Contains(buf.String(), "!badkey=dangling") {
		t.Fatalf("dangling key not marked: %s", buf.String())
	}
	buf.Reset()
	lg.Info("nonstring", 42, "v")
	if !strings.Contains(buf.String(), "!badkey=v") {
		t.Fatalf("non-string key not marked: %s", buf.String())
	}
	buf.Reset()
	lg.Info("badvalue", "k", struct{}{})
	if !strings.Contains(buf.String(), "k=!badvalue") {
		t.Fatalf("unsupported value not marked: %s", buf.String())
	}
}

func TestNilLoggerIsInert(t *testing.T) {
	var lg *Logger
	lg.Debug("d")
	lg.Info("i", "k", 1)
	lg.Error("e", "err", "x")
	if lg.Dropped() != 0 {
		t.Fatal("nil logger dropped records")
	}
}

// failWriter fails every write, for the dropped-records counter.
type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("wall") }

func TestLoggerCountsDroppedWrites(t *testing.T) {
	lg := NewLogger(failWriter{}, slog.LevelInfo)
	lg.Info("a")
	lg.Info("b")
	lg.Debug("filtered, not dropped")
	if got := lg.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
}

// TestDisabledLoggingAllocations pins the tentpole property: a nil
// logger call site with a mixed non-constant kv list performs zero
// allocations — the variadic boxing stays on the caller's stack.
func TestDisabledLoggingAllocations(t *testing.T) {
	var lg *Logger
	n := 3
	s := "value"
	d := time.Second
	f := 0.5
	if got := testing.AllocsPerRun(200, func() {
		lg.Info("msg", "n", n, "s", s, "d", d, "f", f, "ok", true)
	}); got != 0 {
		t.Fatalf("nil Logger.Info: %v allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		lg.Error("msg", "n", n+1, "s", s)
	}); got != 0 {
		t.Fatalf("nil Logger.Error: %v allocs/op, want 0", got)
	}
}

// Dropped reports how many records failed to write (0 when nil).
func (l *Logger) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped.Load()
}
