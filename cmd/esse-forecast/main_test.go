package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden with this run's stdout")

// TestMain runs the command itself when re-executed by runMain.
func TestMain(m *testing.M) {
	if os.Getenv("ESSE_FORECAST_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tiny is the smallest run that still prints the maps.
var tiny = []string{"-nx", "6", "-ny", "6", "-nz", "2", "-cycles", "1", "-steps", "2", "-ensemble", "4", "-max-ensemble", "4"}

// runMain runs the command with tiny's flags and args in a child
// process of the test binary and returns its stdout, stderr and exit
// error.
func runMain(args ...string) (stdout, stderr []byte, err error) {
	cmd := exec.Command(os.Args[0], append(append([]string(nil), tiny...), args...)...)
	cmd.Env = append(os.Environ(), "ESSE_FORECAST_RUN_MAIN=1")
	var eb bytes.Buffer
	cmd.Stderr = &eb
	out, err := cmd.Output()
	return out, eb.Bytes(), err
}

// TestPGMFailsLoudly points -pgm at a regular file: the directory
// cannot be made, so the run must exit non-zero and claim no write.
func TestPGMFailsLoudly(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	out, stderr, err := runMain("-pgm", file)
	if err == nil {
		t.Fatalf("-pgm at a regular file exited 0\n%s", out)
	}
	if bytes.Contains(out, []byte("wrote")) {
		t.Fatalf("failed -pgm still printed a wrote line:\n%s", out)
	}
	if !bytes.Contains(stderr, []byte("writing PGM images failed")) {
		t.Fatalf("stderr does not name the failure:\n%s", stderr)
	}
}

// TestPGMWritesBothImages points -pgm at a directory: both Fig. 5/6
// images must be there, as plain PGM.
func TestPGMWritesBothImages(t *testing.T) {
	dir := t.TempDir()
	if out, stderr, err := runMain("-pgm", dir); err != nil {
		t.Fatalf("esse-forecast -pgm %s: %v\n%s\n%s", dir, err, out, stderr)
	}
	for _, name := range []string{"fig5_sst_std.pgm", "fig6_30m_std.pgm"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte("P2")) {
			t.Fatalf("%s starts with %q, want P2", name, b[:min(len(b), 8)])
		}
	}
}

// elapsedCol matches a cycle row up to its right-aligned elapsed
// column, the only wall-clock field of the output.
var elapsedCol = regexp.MustCompile(`(?m)^(\d+(?: +\S+){6}) +\S+`)

// TestStdoutGolden pins the stdout of the tiny run with -smooth: the
// per-platform observation counts, the cycle row with its smoother
// columns, both maps and the timelines.
func TestStdoutGolden(t *testing.T) {
	out, stderr, err := runMain("-smooth")
	if err != nil {
		t.Fatalf("esse-forecast -smooth: %v\n%s", err, stderr)
	}
	checkGolden(t, elapsedCol.ReplaceAll(out, []byte("${1} <elapsed>")))
}

// TestTrackdirResume runs tiny twice over one -trackdir directory. Each
// tracked member leaves one status file; the second run resumes every
// member from those files, rewrites none of them and prints what the
// first run printed.
func TestTrackdirResume(t *testing.T) {
	dir := t.TempDir()
	run := func() (stdout []byte, files map[string]os.FileInfo) {
		t.Helper()
		out, stderr, err := runMain("-trackdir", dir)
		if err != nil {
			t.Fatalf("esse-forecast -trackdir %s: %v\n%s", dir, err, stderr)
		}
		paths, err := filepath.Glob(filepath.Join(dir, "cycle-*", "*"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no files under %s/cycle-* (%v)", dir, err)
		}
		files = map[string]os.FileInfo{}
		for _, p := range paths {
			if ok, _ := filepath.Match("member_*.status", filepath.Base(p)); !ok {
				t.Fatalf("%s: a tracking directory holds only member_*.status files", p)
			}
			if files[p], err = os.Stat(p); err != nil {
				t.Fatal(err)
			}
		}
		return elapsedCol.ReplaceAll(out, []byte("${1} <elapsed>")), files
	}
	first, before := run()
	second, after := run()
	if !bytes.Equal(second, first) {
		t.Errorf("resumed run printed\n%s\nthe first run printed\n%s", second, first)
	}
	if len(after) != len(before) {
		t.Fatalf("the resume left %d files, the first run %d", len(after), len(before))
	}
	for p, fi := range before {
		if !os.SameFile(fi, after[p]) {
			t.Errorf("%s was rewritten by the resume", p)
		}
	}
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
