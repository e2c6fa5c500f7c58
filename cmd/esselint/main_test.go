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

// TestMain runs the command itself when re-executed by runMain.
func TestMain(m *testing.M) {
	if os.Getenv("ESSELINT_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args from the root of the module in a
// child process of the test binary and returns its stdout.
func runMain(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = "../.."
	cmd.Env = append(os.Environ(), "ESSELINT_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("esselint %v: %v\n%s%s", args, err, out, stderr.Bytes())
	}
	return out
}

// TestListGolden pins -list: the suite's rules and their docs.
func TestListGolden(t *testing.T) {
	checkGolden(t, runMain(t, "-list"))
}

// TestCleanPackagePasses runs the analyzers over a package of the tree,
// which is clean: exit 0 and no diagnostic on stdout.
func TestCleanPackagePasses(t *testing.T) {
	if out := runMain(t, "-vet=false", "./internal/sched"); len(out) > 0 {
		t.Fatalf("diagnostics on a clean package:\n%s", out)
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
