package telemetry

import (
	"io"
	"strconv"
	"strings"
	"testing"
)

// scrapeString renders the registry into a string.
func scrapeString(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestExpositionRoundTrip pins the writer/parser pair: the writer's
// canonical output parses back, and re-rendering the parse reproduces
// the bytes exactly.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("esse_rt_total", "Counted things.", "outcome", "done").Add(3)
	r.Counter("esse_rt_total", "Counted things.", "outcome", "failed").Add(1)
	r.Gauge("esse_rt_gauge", `Help with \ backslash and
newline.`).Set(-2.25)

	text := scrapeString(t, r)
	exp, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	var sb strings.Builder
	if err := exp.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != text {
		t.Fatalf("render != original\n--- wrote ---\n%s--- re-rendered ---\n%s", text, sb.String())
	}

	// The parse sees the structure, not just the bytes.
	fam := exp.Family("esse_rt_total")
	if fam == nil || fam.Type != "counter" || fam.Help != "Counted things." || len(fam.Samples) != 2 {
		t.Fatalf("counter family = %+v", fam)
	}
	g := exp.Family("esse_rt_gauge")
	if g == nil || g.Help != "Help with \\ backslash and\nnewline." {
		t.Fatalf("help not unescaped: %+v", g)
	}
}

func TestExpositionValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("esse_v_total", "", "outcome", "done").Add(7)

	exp, err := ParsePrometheus(strings.NewReader(scrapeString(t, r)))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := exp.Value("esse_v_total", "outcome", "done"); !ok || v != 7 {
		t.Fatalf("counter value = %v, %v", v, ok)
	}
	if _, ok := exp.Value("esse_v_total"); ok {
		t.Fatal("label-less lookup must not match the labelled series")
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("esse_esc", "", "path", "a\\b\"c\nd").Set(1)
	text := scrapeString(t, r)
	exp, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if v, ok := exp.Value("esse_esc", "path", "a\\b\"c\nd"); !ok || v != 1 {
		t.Fatalf("escaped label round-trip failed: %v %v in\n%s", v, ok, text)
	}
}

func TestParsePrometheusErrors(t *testing.T) {
	bad := []string{
		"esse_x",                     // no value
		"esse_x notanumber",          // bad value
		"esse_x{k=\"v\" 1",           // unterminated label set
		"esse_x{k=\"v\\q\"} 1",       // unknown escape
		"esse_x{k=v} 1",              // unquoted value
		"esse_x{=\"v\"} 1",           // empty key
		"esse_x 1 2 3",               // trailing junk
		"9leading 1",                 // invalid name
		"# TYPE esse_x wavelet",      // unknown type
		"# TYPE esse_x",              // truncated TYPE
		"# HELP  trailing",           // HELP without name
		"esse_x{k=\"unterminated} 1", // unterminated value
		"esse_x{k=\"v\"} 1 notatime", // bad timestamp
	}
	for _, line := range bad {
		if _, err := ParsePrometheus(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("ParsePrometheus(%q) accepted malformed input", line)
		}
	}

	good := []string{
		"",                       // empty body
		"# arbitrary comment\n",  // non-header comment
		"esse_x 1 1700000000\n",  // timestamp accepted
		"esse_x{} 1\n",           // empty label set
		"esse_x{le=\"0.5\"} 1\n", // le legal in parse direction
		"# TYPE esse_x counter\nesse_x 1\n",
	}
	for _, text := range good {
		if _, err := ParsePrometheus(strings.NewReader(text)); err != nil {
			t.Errorf("ParsePrometheus(%q): %v", text, err)
		}
	}
}

// Family returns the named family, or nil.
func (e *Exposition) Family(name string) *Family {
	for i := range e.Families {
		if e.Families[i].Name == name {
			return &e.Families[i]
		}
	}
	return nil
}

// Render writes the exposition back out in the writer's canonical
// format — Parse(WritePrometheus(r)).Render reproduces the bytes, the
// round-trip the tests pin.
func (e *Exposition) Render(w io.Writer) error {
	buf := make([]byte, 0, 4096)
	for i := range e.Families {
		f := &e.Families[i]
		if f.Help != "" || f.Type != "" {
			buf = append(buf, "# HELP "...)
			buf = append(buf, f.Name...)
			buf = append(buf, ' ')
			buf = appendEscapedHelp(buf, f.Help)
			buf = append(buf, '\n')
			buf = append(buf, "# TYPE "...)
			buf = append(buf, f.Name...)
			buf = append(buf, ' ')
			if f.Type == "" {
				buf = append(buf, "untyped"...)
			} else {
				buf = append(buf, f.Type...)
			}
			buf = append(buf, '\n')
		}
		for _, s := range f.Samples {
			buf = append(buf, s.Name...)
			if len(s.Labels) > 0 {
				buf = append(buf, '{')
				for j, l := range s.Labels {
					if j > 0 {
						buf = append(buf, ',')
					}
					buf = append(buf, l.Key...)
					buf = append(buf, '=', '"')
					buf = appendEscaped(buf, l.Value)
					buf = append(buf, '"')
				}
				buf = append(buf, '}')
			}
			buf = append(buf, ' ')
			buf = strconv.AppendFloat(buf, s.Value, 'g', -1, 64)
			buf = append(buf, '\n')
		}
	}
	_, err := w.Write(buf)
	return err
}
