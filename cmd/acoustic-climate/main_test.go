package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden with this run's stdout")

// TestMain runs the command itself when re-executed by runMain.
func TestMain(m *testing.M) {
	if os.Getenv("ACOUSTIC_CLIMATE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args in a child process of the test
// binary and returns its stdout, stderr and exit error.
func runMain(args ...string) (stdout, stderr []byte, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ACOUSTIC_CLIMATE_RUN_MAIN=1")
	var eb bytes.Buffer
	cmd.Stderr = &eb
	out, err := cmd.Output()
	return out, eb.Bytes(), err
}

// wallClock matches the fields that measure wall time: the run's wall
// time and task-seconds, and the throughput line.
var wallClock = regexp.MustCompile(`in \S+ wall, \S+ s task-seconds|(?m)^throughput: .*$`)

// TestStdoutGolden pins the climate of one member and one slice on two
// workers, its wall-clock fields masked.
func TestStdoutGolden(t *testing.T) {
	out, stderr, err := runMain("-members", "1", "-slices", "1", "-workers", "2")
	if err != nil {
		t.Fatalf("acoustic-climate: %v\n%s", err, stderr)
	}
	checkGolden(t, wallClock.ReplaceAll(out, []byte("<wall clock>")))
}

// TestNoTaskCompletedFailsCleanly gives source depths outside the water
// column, so every trace fails: the run must say so on stderr and exit
// 1, not panic on the empty result.
func TestNoTaskCompletedFailsCleanly(t *testing.T) {
	for _, depth := range []string{"-5", "NaN", "1e9"} {
		t.Run(depth, func(t *testing.T) {
			_, stderr, err := runMain("-members", "1", "-slices", "1", "-workers", "2", "-depths", depth)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("-depths %s: exit %v, want status 1\n%s", depth, err, stderr)
			}
			if !bytes.Contains(stderr, []byte("no task completed (3 failed, 0 cancelled)")) || bytes.Contains(stderr, []byte("panic:")) {
				t.Fatalf("-depths %s: stderr does not name the failed tasks:\n%s", depth, stderr)
			}
		})
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
