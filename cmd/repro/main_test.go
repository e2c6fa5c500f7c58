package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden with this run's stdout")

// TestMain runs the command itself when re-executed by the test.
func TestMain(m *testing.M) {
	if os.Getenv("REPRO_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStdoutGolden pins the static tables: Tables 1 and 2 and the EC2
// cost example. The simulated numbers are internal/experiments'
// TestGolden's.
func TestStdoutGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-table1", "-table2", "-cost")
	cmd.Env = append(os.Environ(), "REPRO_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("repro: %v\n%s", err, stderr.Bytes())
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
