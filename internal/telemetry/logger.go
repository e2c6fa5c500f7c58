package telemetry

import (
	"context"
	"io"
	"log/slog"
	"sync/atomic"
	"time"
)

// Logger is structured logging over log/slog, with
// the package's nil discipline: a nil *Logger is the disabled default
// and its call sites perform zero allocations — including the boxing
// of the kv variadic. That property needs care: the exported level
// methods are tiny inlinable wrappers that bail out before touching
// kv, and the non-inlined emit extracts values through a concrete type
// switch, never leaking the []any, so escape analysis keeps the
// variadic backing array and the interface boxes on the caller's
// stack. logger_test.go's TestDisabledLoggingAllocations pins this.
//
// kv alternates constant string keys and values; a test checks the
// lines esse-report logs on its error exits for a dangling or repeated
// key, not every call site. Supported value types: string, int, int64,
// uint64, float64, bool, time.Duration; anything else renders as
// "!badvalue". In particular errors must be passed pre-rendered
// ("err", err.Error()) — a dynamic Error() call inside the logger
// would leak the variadic and break the disabled-path alloc pin.
type Logger struct {
	h       slog.Handler
	min     slog.Level
	dropped *atomic.Uint64 // handler write failures
}

// NewLogger returns a Logger writing logfmt-style lines (slog's text
// handler) at or above min to w.
func NewLogger(w io.Writer, min slog.Level) *Logger {
	return &Logger{
		h:       slog.NewTextHandler(w, &slog.HandlerOptions{Level: min}),
		min:     min,
		dropped: new(atomic.Uint64),
	}
}

// Debug logs at LevelDebug. kv alternates constant keys and values.
func (l *Logger) Debug(msg string, kv ...any) {
	if l == nil {
		return
	}
	l.emit(slog.LevelDebug, msg, kv)
}

// Info logs at LevelInfo. kv alternates constant keys and values.
func (l *Logger) Info(msg string, kv ...any) {
	if l == nil {
		return
	}
	l.emit(slog.LevelInfo, msg, kv)
}

// Error logs at LevelError. kv alternates constant keys and values.
// Pass errors pre-rendered: "err", err.Error().
func (l *Logger) Error(msg string, kv ...any) {
	if l == nil {
		return
	}
	l.emit(slog.LevelError, msg, kv)
}

// emit builds the slog.Record. It must stay non-inlined and must not
// leak kv (no slog.Any, no fmt, no dynamic method calls on elements):
// the level wrappers above stay zero-alloc on the nil path only while
// escape analysis can prove the variadic never escapes here.
//
//go:noinline
func (l *Logger) emit(level slog.Level, msg string, kv []any) {
	if level < l.min {
		return
	}
	rec := slog.NewRecord(time.Now(), level, msg, 0)
	for i := 0; i < len(kv); i += 2 {
		key, _ := kv[i].(string)
		if key == "" {
			key = "!badkey"
		}
		if i+1 >= len(kv) {
			rec.AddAttrs(slog.String("!badkey", key))
			break
		}
		var v slog.Value
		switch x := kv[i+1].(type) {
		case string:
			v = slog.StringValue(x)
		case int:
			v = slog.Int64Value(int64(x))
		case int64:
			v = slog.Int64Value(x)
		case uint64:
			v = slog.Uint64Value(x)
		case float64:
			v = slog.Float64Value(x)
		case bool:
			v = slog.BoolValue(x)
		case time.Duration:
			v = slog.DurationValue(x)
		default:
			v = slog.StringValue("!badvalue")
		}
		rec.AddAttrs(slog.Attr{Key: key, Value: v})
	}
	if err := l.h.Handle(context.Background(), rec); err != nil {
		l.dropped.Add(1)
	}
}
