package main

import (
	"bytes"
	"flag"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden with this run's stdout")

// TestMain runs the command itself when re-executed by command.
func TestMain(m *testing.M) {
	if os.Getenv("OPENDAP_SERVER_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// command returns the command with args as a child process of the test
// binary.
func command(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "OPENDAP_SERVER_RUN_MAIN=1")
	return cmd
}

// TestClientAgainstServer boots the server on a free loopback port,
// pins the stdout of client mode fetching a hyperslab from it, then
// SIGTERMs the server: it must drain and exit 0.
func TestClientAgainstServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}

	server := command("-listen", addr)
	var serverErr bytes.Buffer
	server.Stderr = &serverErr
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- server.Wait() }()
	reaped := false
	t.Cleanup(func() {
		if !reaped {
			// The test has already failed; Kill errs only if the child
			// is gone, and the receive below reaps it either way.
			_ = server.Process.Kill()
			<-exited
		}
	})

	// The server publishes its datasets before it listens: poll until
	// /datasets answers.
	client := &http.Client{Timeout: 5 * time.Second}
	for deadline := time.Now().Add(time.Minute); ; {
		resp, err := client.Get("http://" + addr + "/datasets")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case err := <-exited:
			reaped = true
			t.Fatalf("opendap-server exited before serving: %v\n%s", err, serverErr.Bytes())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("/datasets never answered: %v", err)
		}
	}

	fetch := command("-fetch", "http://"+addr, "-var", "T", "-slab", "0,0,0:1,2,2")
	var fetchErr bytes.Buffer
	fetch.Stderr = &fetchErr
	out, err := fetch.Output()
	if err != nil {
		t.Fatalf("opendap-server -fetch: %v\n%s", err, fetchErr.Bytes())
	}
	checkGolden(t, out)

	if err := server.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		reaped = true
		if err != nil {
			t.Fatalf("opendap-server after SIGTERM: %v\n%s", err, serverErr.Bytes())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("opendap-server still serving 5 s after SIGTERM")
	}
	if !strings.Contains(serverErr.String(), "shutdown complete") {
		t.Fatalf("stderr does not report the shutdown:\n%s", serverErr.Bytes())
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
