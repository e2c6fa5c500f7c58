package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

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
