package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden with this run's stdout")

// TestMain runs the command itself when re-executed by a test.
func TestMain(m *testing.M) {
	if os.Getenv("ESSE_REPORT_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDigestGolden pins the text digest of a small fixed trace and
// event log: one cycle with its phase table and critical path, an
// orphaned member, a skipped paper-time row, and the audit with its
// dropped-events warning.
func TestDigestGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-trace", "testdata/trace.json", "-events", "testdata/events.json")
	cmd.Env = append(os.Environ(), "ESSE_REPORT_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("esse-report: %v\n%s", err, stderr.Bytes())
	}
	checkGolden(t, out)
}

// checkGolden compares got with testdata/stdout.golden; -update
// rewrites the file instead.
func checkGolden(t *testing.T, got []byte) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("stdout is pinned on amd64; on %s the compiler may fuse multiply-adds, which changes printed digits", runtime.GOARCH)
	}
	const path = "testdata/stdout.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout differs from %s (after a deliberate change: -update, then git diff):\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// span is one Chrome trace event as the telemetry server exports it.
func span(id, parent string) string {
	return fmt.Sprintf(`{"name":"s","cat":"c","ph":"X","ts":1,"dur":1,"pid":1,"tid":0,`+
		`"args":{"trace_id":"t","span_id":%q,"parent_span_id":%q}}`, id, parent)
}

// TestErrorLinesAreWellFormed drives the command into each of its
// error exits and checks the log line it dies with: no key without its
// value, no key twice. A malformed key/value list fails only at run
// time, on the path that is already failing.
func TestErrorLinesAreWellFormed(t *testing.T) {
	dir := t.TempDir()
	file := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := file("good.json", "["+span("a", "")+"]")
	empty := file("empty.json", "[]")
	orphan := file("orphan.json", "["+span("b", "gone")+"]")
	garbage := file("garbage.txt", "this is { not json or an exposition\n")
	missing := filepath.Join(dir, "missing")

	cases := []struct {
		msg  string
		args []string
	}{
		{"missing -trace", nil},
		{"loading trace failed", []string{"-trace", missing}},
		{"parsing trace failed", []string{"-trace", garbage}},
		{"loading events failed", []string{"-trace", good, "-events", missing}},
		{"parsing events failed", []string{"-trace", good, "-events", garbage}},
		{"loading metrics failed", []string{"-trace", good, "-metrics", missing}},
		{"parsing metrics failed", []string{"-trace", good, "-metrics", garbage}},
		{"writing digest failed", []string{"-trace", good, "-out", filepath.Join(missing, "d.json")}},
		{"writing digest failed", []string{"-trace", good, "-out", "/dev/full"}},
		{"strict: span tree is empty", []string{"-trace", empty, "-strict"}},
		{"strict: orphan spans present", []string{"-trace", orphan, "-strict"}},
	}
	for _, c := range cases {
		t.Run(c.msg, func(t *testing.T) {
			if slices.Contains(c.args, "/dev/full") {
				f, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
				if err != nil {
					t.Skip("no writable /dev/full:", err)
				}
				f.Close()
			}
			cmd := exec.Command(os.Args[0], append([]string{"-q"}, c.args...)...)
			cmd.Env = append(os.Environ(), "ESSE_REPORT_RUN_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			var exit *exec.ExitError
			if err := cmd.Run(); !errors.As(err, &exit) {
				t.Fatalf("exit %v, want a failure status; stderr:\n%s", err, stderr.Bytes())
			}
			line := strings.TrimSpace(stderr.String())
			if !strings.Contains(line, c.msg) {
				t.Fatalf("stderr is not the %q line:\n%s", c.msg, line)
			}
			if strings.Contains(strings.ToLower(line), "!badkey") {
				t.Fatalf("a key without its value:\n%s", line)
			}
			keys, err := logKeys(line)
			if err != nil {
				t.Fatalf("%v:\n%s", err, line)
			}
			seen := map[string]bool{}
			for _, k := range keys {
				if seen[k] {
					t.Fatalf("key %q twice:\n%s", k, line)
				}
				seen[k] = true
			}
		})
	}
}

// logKeys returns the keys of one line of slog's text handler, in order.
func logKeys(line string) ([]string, error) {
	var keys []string
	for s := line; s != ""; {
		k, rest, ok := strings.Cut(s, "=")
		if !ok {
			return nil, fmt.Errorf("no '=' after %q", s)
		}
		keys = append(keys, k)
		if strings.HasPrefix(rest, `"`) {
			q, err := strconv.QuotedPrefix(rest)
			if err != nil {
				return nil, err
			}
			rest = rest[len(q):]
		} else if i := strings.IndexByte(rest, ' '); i >= 0 {
			rest = rest[i:]
		} else {
			rest = ""
		}
		s = strings.TrimPrefix(rest, " ")
	}
	return keys, nil
}
