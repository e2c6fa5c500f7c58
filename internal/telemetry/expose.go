package telemetry

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file implements the Prometheus text exposition format, both
// directions: WritePrometheus renders the registry (the /metrics
// endpoint body) and ParsePrometheus reads it back into an Exposition
// — the structure the round-trip tests and cmd/mtc-sim's telemetry
// smoke test validate against. The writer produces canonical
// output: families sorted by name, series sorted by rendered label
// string, one HELP and one TYPE line per family, values formatted with
// strconv ('g', shortest round-trip), so Parse and the tests' Render
// reproduce the bytes exactly.

// WritePrometheus renders every family in text exposition format. The
// registry lock is held while the buffer is built (structure only —
// the values themselves are atomic loads) and released before the
// single Write. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	buf := make([]byte, 0, 4096)
	for _, name := range r.names {
		buf = appendFamily(buf, r.families[name])
	}
	r.mu.Unlock()
	_, err := w.Write(buf)
	return err
}

func appendFamily(buf []byte, fam *family) []byte {
	buf = append(buf, "# HELP "...)
	buf = append(buf, fam.name...)
	buf = append(buf, ' ')
	buf = appendEscapedHelp(buf, fam.help)
	buf = append(buf, '\n')
	buf = append(buf, "# TYPE "...)
	buf = append(buf, fam.name...)
	buf = append(buf, ' ')
	buf = append(buf, fam.kind.String()...)
	buf = append(buf, '\n')
	for _, s := range fam.ordered {
		switch fam.kind {
		case kindCounter:
			buf = appendSample(buf, fam.name, s.labels, float64(s.c.Value()))
		case kindGauge:
			buf = appendSample(buf, fam.name, s.labels, s.g.Value())
		}
	}
	return buf
}

// appendSample renders one `name[{labels}] value` line.
func appendSample(buf []byte, name, labels string, value float64) []byte {
	buf = append(buf, name...)
	if labels != "" {
		buf = append(buf, '{')
		buf = append(buf, labels...)
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	buf = strconv.AppendFloat(buf, value, 'g', -1, 64)
	buf = append(buf, '\n')
	return buf
}

// appendEscapedHelp escapes backslash and newline per the exposition
// rules for HELP text.
func appendEscapedHelp(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		default:
			dst = append(dst, s[i])
		}
	}
	return dst
}

// unescapeHelp inverts appendEscapedHelp. Unknown escapes are kept
// verbatim (the exposition format tolerates them).
func unescapeHelp(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' || i+1 >= len(s) {
			out = append(out, s[i])
			continue
		}
		switch s[i+1] {
		case '\\':
			out = append(out, '\\')
			i++
		case 'n':
			out = append(out, '\n')
			i++
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

// --- parser -----------------------------------------------------------------

// Label is one parsed key/value pair.
type Label struct {
	Key, Value string
}

// Sample is one parsed series line.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Family is one parsed metric family.
type Family struct {
	Name, Help, Type string
	Samples          []Sample
}

// Exposition is a parsed /metrics body.
type Exposition struct {
	Families []Family
}

// ParsePrometheus parses a text exposition body. It is strict about
// line syntax (the telemetry smoke test relies on that) but tolerant about
// ordering: HELP/TYPE may arrive in either order and samples without a
// preceding header open an implicit untyped family.
func ParsePrometheus(r io.Reader) (*Exposition, error) {
	exp := &Exposition{}
	byName := map[string]int{}
	fam := func(name string) *Family {
		if i, ok := byName[name]; ok {
			return &exp.Families[i]
		}
		byName[name] = len(exp.Families)
		exp.Families = append(exp.Families, Family{Name: name})
		return &exp.Families[len(exp.Families)-1]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " \t")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseHeader(line, fam); err != nil {
				return nil, fmt.Errorf("telemetry: line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", lineNo, err)
		}
		f := fam(familyNameOf(s.Name, exp, byName))
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading exposition: %w", err)
	}
	return exp, nil
}

// familyNameOf maps a sample name to its owning family: histogram
// sample names carry _bucket/_sum/_count suffixes.
func familyNameOf(sample string, exp *Exposition, byName map[string]int) string {
	for _, suffix := range [...]string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(sample, suffix)
		if !ok {
			continue
		}
		if i, exists := byName[base]; exists && exp.Families[i].Type == "histogram" {
			return base
		}
	}
	return sample
}

func parseHeader(line string, fam func(string) *Family) error {
	if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
		name, help, _ := strings.Cut(rest, " ")
		if name == "" {
			return fmt.Errorf("HELP line without a metric name")
		}
		fam(name).Help = unescapeHelp(help)
		return nil
	}
	if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
		name, typ, found := strings.Cut(rest, " ")
		if name == "" || !found {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", typ)
		}
		fam(name).Type = typ
		return nil
	}
	// Other comments are legal and ignored.
	return nil
}

func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	brace := strings.IndexByte(rest, '{')
	var err error
	if brace >= 0 {
		s.Name = rest[:brace]
		rest = rest[brace+1:]
		s.Labels, rest, err = parseLabels(rest)
		if err != nil {
			return s, err
		}
	} else {
		var found bool
		s.Name, rest, found = strings.Cut(rest, " ")
		if !found {
			return s, fmt.Errorf("sample line %q has no value", line)
		}
	}
	if s.Name == "" || !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name in %q", line)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("want `value [timestamp]` after name, got %q", rest)
	}
	s.Value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad sample value %q: %w", fields[0], err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return s, nil
}

// parseLabels consumes `k="v",...}` and returns the remainder after
// the closing brace.
func parseLabels(in string) ([]Label, string, error) {
	var labels []Label
	rest := in
	for {
		rest = strings.TrimLeft(rest, " \t")
		if rest == "" {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if rest[0] == '}' {
			return labels, rest[1:], nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '=' in %q", rest)
		}
		key := strings.TrimSpace(rest[:eq])
		if key != "le" && !validLabelKey(key) {
			return nil, "", fmt.Errorf("invalid label key %q", key)
		}
		rest = strings.TrimLeft(rest[eq+1:], " \t")
		if rest == "" || rest[0] != '"' {
			return nil, "", fmt.Errorf("label value for %q is not quoted", key)
		}
		val, n, err := unquoteLabelValue(rest[1:])
		if err != nil {
			return nil, "", err
		}
		rest = rest[1+n:]
		labels = append(labels, Label{Key: key, Value: val})
		rest = strings.TrimLeft(rest, " \t")
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
		}
	}
}

// errBadEscape reports an escape other than \\, \" or \n; it is a
// package-level value so the parse loop stays allocation-free.
var errBadEscape = errors.New("unknown escape in label value")

// unquoteLabelValue reads up to the closing quote, resolving the three
// exposition escapes; n is the number of input bytes consumed
// including the closing quote.
func unquoteLabelValue(in string) (val string, n int, err error) {
	var b strings.Builder
	for i := 0; i < len(in); i++ {
		c := in[i]
		if c == '"' {
			return b.String(), i + 1, nil
		}
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(in) {
			return "", 0, fmt.Errorf("dangling escape in label value")
		}
		switch in[i] {
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		case 'n':
			b.WriteByte('\n')
		default:
			return "", 0, errBadEscape
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

// Value returns the value of the sample with the given name and exact
// label set, and whether it was found — a convenience for tests.
func (e *Exposition) Value(sample string, labelKV ...string) (float64, bool) {
	if len(labelKV)%2 != 0 {
		return math.NaN(), false
	}
	for i := range e.Families {
		for _, s := range e.Families[i].Samples {
			if s.Name != sample || len(s.Labels) != len(labelKV)/2 {
				continue
			}
			match := true
			for j, l := range s.Labels {
				if l.Key != labelKV[2*j] || l.Value != labelKV[2*j+1] {
					match = false
					break
				}
			}
			if match {
				return s.Value, true
			}
		}
	}
	return math.NaN(), false
}
