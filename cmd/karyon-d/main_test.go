package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"karyon/internal/service"
	"karyon/internal/serviceclient"
)

// startDaemon runs the daemon body on an ephemeral port and returns a
// client plus a shutdown func that sends SIGTERM and waits for exit.
func startDaemon(t *testing.T, extra ...string) (*serviceclient.Client, *bytes.Buffer, func()) {
	t.Helper()
	var logMu sync.Mutex
	var logBuf bytes.Buffer
	logw := writerFunc(func(p []byte) (int, error) {
		logMu.Lock()
		defer logMu.Unlock()
		return logBuf.Write(p)
	})
	args := append([]string{"-listen", "127.0.0.1:0", "-cache-dir", t.TempDir()}, extra...)
	ready := make(chan string, 1)
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- run(args, logw, ready, sig) }()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	stop := func() {
		sig <- syscall.SIGTERM
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("daemon exit: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("daemon did not exit after SIGTERM")
		}
	}
	return serviceclient.New("http://" + addr), &logBuf, stop
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestDaemonServesAndCaches(t *testing.T) {
	c, _, stop := startDaemon(t)
	defer stop()
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	spec := service.JobSpec{Scenario: "highway", Seed: 5, Replicas: 2, Duration: "10s", Cars: 6}
	st1, rep1, err := c.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st2, rep2, err := c.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st1.ID != st2.ID || st1.Cached || !st2.Cached {
		t.Fatalf("dedupe broken: first (cached=%v) vs second (cached=%v)", st1.Cached, st2.Cached)
	}
	if rep1.Summary == nil || rep2.Summary == nil {
		t.Fatal("missing summaries")
	}
}

func TestDaemonSIGTERMDrainsCleanly(t *testing.T) {
	c, logBuf, stop := startDaemon(t)
	ctx := context.Background()
	spec := service.JobSpec{Scenario: "highway", Seed: 9, Replicas: 1, Duration: "5s", Cars: 4}
	if _, _, err := c.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	stop()
	out := logBuf.String()
	if !strings.Contains(out, "drained cleanly") {
		t.Fatalf("log does not report a clean drain:\n%s", out)
	}
	// The socket must actually be gone.
	if err := c.Health(ctx); err == nil {
		t.Fatal("daemon still serving after SIGTERM drain")
	}
}

func TestDaemonRejectsBadFlags(t *testing.T) {
	err := run([]string{"-listen", "not a real:address:at-all"}, writerFunc(func(p []byte) (int, error) { return len(p), nil }), nil, nil)
	if err == nil {
		t.Fatal("bad listen address accepted")
	}
}

// TestSlowHeaderClientIsDisconnected: a client that sends half a request
// header and stalls is cut off once readHeaderTimeout passes, instead of
// holding its connection open indefinitely.
func TestSlowHeaderClientIsDisconnected(t *testing.T) {
	ready := make(chan string, 1)
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	args := []string{"-listen", "127.0.0.1:0", "-cache-dir", t.TempDir()}
	go func() { done <- run(args, io.Discard, ready, sig) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	defer func() {
		sig <- syscall.SIGTERM
		if err := <-done; err != nil {
			t.Errorf("daemon exit: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/jobs HTTP/1.1\r\nHost: karyon\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open %v after a half-sent header", time.Since(start))
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the header timeout", waited)
	}
}
