package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden with this run's stdout")

// TestMain runs the command itself when re-executed by runMain.
func TestMain(m *testing.M) {
	if os.Getenv("CLOUDBURST_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args in a child process of the test
// binary and returns its stdout, stderr and exit error.
func runMain(args ...string) (stdout, stderr []byte, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CLOUDBURST_RUN_MAIN=1")
	var eb bytes.Buffer
	cmd.Stderr = &eb
	out, err := cmd.Output()
	return out, eb.Bytes(), err
}

// TestStdoutGolden pins the default plan: home cluster alone, the EC2
// burst and its bill, the return strategies and the Grid alternative.
func TestStdoutGolden(t *testing.T) {
	out, stderr, err := runMain()
	if err != nil {
		t.Fatalf("cloudburst: %v\n%s", err, stderr)
	}
	checkGolden(t, out)
}

// TestNoCoresExitsCleanly asks for a home cluster without cores: the
// run must exit 2 with the reason on stderr, not panic in the
// simulator (which also exits 2).
func TestNoCoresExitsCleanly(t *testing.T) {
	_, stderr, err := runMain("-cores", "0")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-cores 0: exit %v, want status 2\n%s", err, stderr)
	}
	if !bytes.Contains(stderr, []byte("-cores must be at least 1")) || bytes.Contains(stderr, []byte("panic:")) {
		t.Fatalf("-cores 0: stderr does not name the flag:\n%s", stderr)
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
