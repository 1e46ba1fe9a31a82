package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// buildGcxd compiles this command into a temporary directory; the tests
// drive the binary itself, since main owns flag parsing, the exit codes
// and signal handling.
func buildGcxd(t *testing.T) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "gcxd")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// exitCode runs bin with args to completion and returns its exit status
// and stderr.
func exitCode(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), stderr.String()
	default:
		t.Fatalf("run %v: %v", args, err)
		return 0, ""
	}
}

// syncBuffer is a bytes.Buffer safe to read while the child process
// writes to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

func TestGcxd(t *testing.T) {
	bin := buildGcxd(t)

	t.Run("UnknownLogFormat", func(t *testing.T) {
		code, stderr := exitCode(t, bin, "-addr", freeAddr(t), "-log", "yaml")
		if code != 2 || !strings.Contains(stderr, "unknown -log format") {
			t.Fatalf("exit %d, stderr: %s", code, stderr)
		}
	})

	t.Run("RemovedBytesBodyLimitFlag", func(t *testing.T) {
		code, stderr := exitCode(t, bin, "-addr", freeAddr(t), "-bytes-body-limit", "0")
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
			t.Fatalf("exit %d, stderr: %s", code, stderr)
		}
	})

	t.Run("QueryThenSIGTERM", func(t *testing.T) {
		addr := freeAddr(t)
		var stderr syncBuffer
		cmd := exec.Command(bin, "-addr", addr, "-drain", "5s")
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		exited := false
		defer func() {
			if !exited {
				cmd.Process.Kill()
				<-done
			}
		}()

		base := "http://" + addr
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(base + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("gcxd never became healthy: %v\nstderr: %s", err, stderr.String())
			}
			time.Sleep(20 * time.Millisecond)
		}

		req, err := http.NewRequest(http.MethodPost, base+"/query",
			strings.NewReader(`<bib><book><title>A</title></book><book><title>B</title></book></bib>`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-GCX-Query", `<out>{ for $b in /bib/book return $b/title }</out>`)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := "<out><title>A</title><title>B</title></out>"; resp.StatusCode != http.StatusOK || string(body) != want {
			t.Fatalf("POST /query: %d %q, want 200 %q", resp.StatusCode, body, want)
		}

		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			exited = true
			if err != nil {
				t.Fatalf("exit after SIGTERM: %v\nstderr: %s", err, stderr.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("gcxd still running 10 s after SIGTERM\nstderr: %s", stderr.String())
		}
		if !strings.Contains(stderr.String(), "gcxd stopped") {
			t.Fatalf("no \"gcxd stopped\" log line\nstderr: %s", stderr.String())
		}
	})
}
