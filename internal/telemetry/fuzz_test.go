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
		// The shapes WritePrometheus emits, and a histogram as other
		// exporters write one.
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
