package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParsePrometheus drives the strict exposition parser with
// adversarial input. Beyond not panicking, it pins the round-trip
// property the telemetry smoke test relies on: any exposition the parser
// accepts must Render back out to bytes the parser accepts again,
// preserving every sample.
func FuzzParsePrometheus(f *testing.F) {
	seeds := []string{
		// The shapes WritePrometheus emits.
		"# HELP up Whether the target is up.\n# TYPE up gauge\nup 1\n",
		"# TYPE reqs counter\nreqs{method=\"get\",code=\"200\"} 1027\nreqs{method=\"post\"} 3\n",
		"# TYPE lat histogram\nlat_bucket{le=\"0.1\"} 3\nlat_bucket{le=\"+Inf\"} 5\nlat_sum 0.8\nlat_count 5\n",
		// Order tolerance: TYPE after the samples it governs.
		"x_bucket{le=\"1\"} 2\n# TYPE x histogram\n",
		// Escapes, timestamps, exotic values.
		"m{k=\"a\\\\b\\\"c\\nd\"} 2.5e-3 1712000000\n",
		"m 0x1p-2\nm NaN\nm +Inf\n",
		"# HELP h line with \\n escape\n# TYPE h untyped\nh 0\n",
		// Malformed lines the parser must reject, not crash on.
		"m{k=\"unterminated\n",
		"m{k=\"bad\\escape\"} 1\n",
		"m{} \n",
		"# TYPE t notatype\n",
		"no_value\n",
		"m 1 not-a-timestamp\n",
		strings.Repeat("a", 70000) + " 1\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		exp, err := ParsePrometheus(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics and hangs are what we hunt
		}
		var buf bytes.Buffer
		if err := exp.Render(&buf); err != nil {
			t.Fatalf("accepted exposition failed to render: %v\ninput: %q", err, data)
		}
		again, err := ParsePrometheus(&buf)
		if err != nil {
			t.Fatalf("rendered exposition does not reparse: %v\nrendered: %q\ninput: %q", err, buf.Bytes(), data)
		}
		if got, want := countSamples(again), countSamples(exp); got != want {
			t.Fatalf("round trip changed sample count %d -> %d\nrendered: %q\ninput: %q", want, got, buf.Bytes(), data)
		}
	})
}

func countSamples(e *Exposition) int {
	n := 0
	for i := range e.Families {
		n += len(e.Families[i].Samples)
	}
	return n
}

// FuzzParseTraceContext drives the strict traceparent parser with
// adversarial headers. Beyond not panicking, it pins the canonical
// round-trip property the HTTP propagation pair relies on: any header
// the parser accepts must re-render through FormatTraceParent to a
// header the parser accepts again, yielding the same span context —
// and the re-rendered form is canonical (version 00, flags 01).
func FuzzParseTraceContext(f *testing.F) {
	canonical := FormatTraceParent(SpanContext{Trace: DeriveTraceID(1), Span: 42})
	seeds := []string{
		canonical,
		canonical[:len(canonical)-2] + "ff", // exotic flags, still valid
		canonical[:len(canonical)-2] + "00", // not-sampled flags, still parsed
		"",
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("0", 16) + "-01", // all-zero ids
		"01" + canonical[2:],           // future version
		strings.ToUpper(canonical),     // uppercase hex
		canonical[:54],                 // truncated
		canonical + "-extra",           // trailing junk
		strings.Repeat("0-", 27) + "0", // dashes everywhere
		"00-zz" + canonical[5:],        // non-hex trace
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseTraceParent(s)
		if !ok {
			return // rejection is fine; panics are what we hunt
		}
		if sc.Trace.IsZero() || sc.Span == 0 {
			t.Fatalf("accepted a header with a zero id: %q -> %+v", s, sc)
		}
		re := FormatTraceParent(sc)
		if len(re) != 55 || re[:3] != "00-" || re[len(re)-3:] != "-01" {
			t.Fatalf("re-render not canonical: %q from %q", re, s)
		}
		again, ok := ParseTraceParent(re)
		if !ok || again != sc {
			t.Fatalf("canonical form does not round trip: %q -> %q -> %+v, %v", s, re, again, ok)
		}
	})
}
