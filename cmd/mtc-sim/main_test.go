package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"esse/internal/forensics"
	"esse/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden with this run's stdout")

// TestMain runs the command itself when re-executed by runMain.
func TestMain(m *testing.M) {
	if os.Getenv("MTC_SIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// command returns the command with args as a child process of the test
// binary.
func command(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MTC_SIM_RUN_MAIN=1")
	return cmd
}

// runMain runs the command with args in a child process and returns its
// stdout.
func runMain(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := command(args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("mtc-sim %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

// TestSameSeedSameReport runs a simulation with failure injection twice:
// a report is a function of its flags, so the two must be byte-equal,
// and equal to testdata/stdout.golden.
func TestSameSeedSameReport(t *testing.T) {
	args := []string{"-seed", "3", "-failure", "0.05", "-jobs", "200"}
	a, b := runMain(t, args...), runMain(t, args...)
	if !bytes.Equal(a, b) {
		t.Fatalf("two runs with the same seed differ:\n%s\n---\n%s", a, b)
	}
	checkGolden(t, a)
}

// TestBadFlagsExitCleanly gives flags the simulation cannot run: each
// must end in exit status 2 with its reason on stderr, not in a panic
// (which also exits 2).
func TestBadFlagsExitCleanly(t *testing.T) {
	cases := []struct {
		msg  string
		args []string
	}{
		{"cores must be at least 1", []string{"-cores", "0"}},
		{"unknown policy", []string{"-policy", "pbs"}},
		{"unknown io mode", []string{"-io", "tape"}},
	}
	for _, c := range cases {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			cmd := command(c.args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			var exit *exec.ExitError
			if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit %v, want status 2\n%s", err, stderr.Bytes())
			}
			if !strings.Contains(stderr.String(), c.msg) || strings.Contains(stderr.String(), "panic:") {
				t.Fatalf("stderr is not the %q line:\n%s", c.msg, stderr.Bytes())
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

// TestTelemetrySurfaces boots the command with its telemetry server and
// reads the three surfaces while the run holds the server open: /metrics
// must parse strictly and carry exactly the run's families, /events
// must parse, and /trace must pass esse-report -strict's rule (at least
// one span, no orphans). SIGTERM during the hold must then end the run
// with exit status 0, well before the hold would.
func TestTelemetrySurfaces(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}

	cmd := command("-jobs", "50", "-cores", "20", "-telemetry-addr", addr, "-telemetry-hold", "30s")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	pr, pw := io.Pipe()
	cmd.Stdout = pw
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() {
		exited <- cmd.Wait()
		pw.Close()
	}()
	reaped := false
	t.Cleanup(func() {
		if !reaped {
			// The test has already failed; Kill errs only if the child
			// is gone, and the receive below reaps it either way.
			_ = cmd.Process.Kill()
			<-exited
		}
	})

	// The gauges are published after the simulation, so a scrape before
	// the hold's announcement could miss them.
	held := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "holding telemetry server") {
				close(held)
				break
			}
		}
		// Keep reading so the child never blocks on a full pipe; what it
		// prints after the announcement is not checked.
		_, _ = io.Copy(io.Discard, pr)
	}()
	select {
	case <-held:
	case err := <-exited:
		reaped = true
		t.Fatalf("mtc-sim exited before holding its server: %v\n%s", err, stderr.Bytes())
	case <-time.After(time.Minute):
		t.Fatal("mtc-sim never announced its hold")
	}

	client := &http.Client{Timeout: 10 * time.Second}
	get := func(path string) []byte {
		t.Helper()
		// The server listens from its own goroutine, which often has not
		// run yet when the announcement arrives: a refused dial is
		// retried, never a reply.
		resp, err := client.Get("http://" + addr + path)
		for deadline := time.Now().Add(2 * time.Second); errors.Is(err, syscall.ECONNREFUSED) && time.Now().Before(deadline); {
			time.Sleep(20 * time.Millisecond)
			resp, err = client.Get("http://" + addr + path)
		}
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s\n%s", path, resp.Status, body)
		}
		return body
	}

	exp, err := telemetry.ParsePrometheus(bytes.NewReader(get("/metrics")))
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	// Exactly the families DESIGN §8 tables for mtc-sim, in the
	// exposition's name order: one with no reader cannot come back.
	var names []string
	for _, f := range exp.Families {
		names = append(names, f.Name)
	}
	want := []string{"go_gc_cycles_total", "go_gc_pause_seconds_total", "go_goroutines", "go_heap_objects_bytes",
		"mtc_sim_jobs", "mtc_sim_makespan_seconds", "mtc_sim_pert_cpu_utilization"}
	if !slices.Equal(names, want) {
		t.Errorf("/metrics families = %v, want %v", names, want)
	}
	events, err := telemetry.ParseEvents(bytes.NewReader(get("/events")))
	if err != nil {
		t.Fatalf("/events: %v", err)
	}
	tree, err := forensics.ParseTrace(bytes.NewReader(get("/trace")))
	if err != nil {
		t.Fatalf("/trace: %v", err)
	}
	if d := forensics.BuildDigest(tree, events, exp); d.Spans == 0 || len(d.Orphans) > 0 {
		t.Errorf("/trace has %d spans and %d orphans, want at least one span and no orphans\n%s",
			d.Spans, len(d.Orphans), forensics.RenderText(d))
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		reaped = true
		if err != nil {
			t.Fatalf("mtc-sim after SIGTERM: %v\n%s", err, stderr.Bytes())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("mtc-sim still holding its server 5 s after SIGTERM")
	}
}
