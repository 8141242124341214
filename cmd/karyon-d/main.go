// Command karyon-d is the resident KARYON simulation daemon: it accepts
// scenario and experiment jobs over a small HTTP control API, schedules
// replicas onto a bounded worker pool, streams structured results as
// NDJSON, and memoizes completed runs in a content-addressed on-disk
// cache — resubmitting an equivalent spec replays the archived stream
// byte-identically instead of re-simulating.
//
// Usage:
//
//	karyon-d [-listen 127.0.0.1:7077] [-cache-dir DIR] [-journal-dir DIR]
//	         [-workers N] [-queue N] [-job-timeout 10m] [-parallel N]
//	         [-drain-timeout 30s]
//
// The API reference lives in docs/API.md; submit from the CLI with
// `karyon-sim -daemon http://127.0.0.1:7077 ...` or from anything that
// can POST JSON. SIGTERM/SIGINT drains gracefully: intake stops, running
// jobs get -drain-timeout to finish, then survivors are cancelled at
// their next deterministic window barrier.
//
// The daemon is crash-safe: every job transition is journaled (atomic
// tmp+rename, like the cache), and a restart over the same -journal-dir/
// -cache-dir replays the journal and re-enqueues whatever a crash
// interrupted — converging to the same byte-identical archives an
// uninterrupted daemon would have produced, since every run is a pure
// function of (spec, seed matrix, build). Scenario panics fail only their
// job (stack in the status), and overload degrades explicitly (503 +
// Retry-After, a "degraded" list in /v1/stats) instead of opaquely.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"karyon/internal/service"
)

// Front-door timeouts. A client must send its request headers within
// readHeaderTimeout, and an idle keep-alive connection is closed after
// idleTimeout, so no connection can pin a server goroutine forever.
// There is deliberately no WriteTimeout: an NDJSON result stream stays
// open for as long as its job runs.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	if err := run(os.Args[1:], os.Stderr, nil, sig); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the testable daemon body: it serves until a signal arrives on
// sig, then drains and returns. If ready is non-nil the bound listen
// address is sent on it once the API is accepting connections.
func run(args []string, logw io.Writer, ready chan<- string, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("karyon-d", flag.ContinueOnError)
	fs.SetOutput(logw)
	listen := fs.String("listen", "127.0.0.1:7077", "control-API listen address")
	cacheDir := fs.String("cache-dir", defaultCacheDir(), "root of the content-addressed run cache")
	journalDir := fs.String("journal-dir", "", "root of the crash-recovery job journal (default: <cache-dir>/journal; \"off\" disables journaling)")
	workers := fs.Int("workers", 0, "concurrent jobs (0 = number of CPUs)")
	queue := fs.Int("queue", 0, "max queued-but-not-started jobs (0 = default 1024)")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job wall-time cap (0 = default 10m, negative = uncapped)")
	parallel := fs.Int("parallel", 0, "per-job replica worker-pool width (0 = GOMAXPROCS/workers)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a signal-triggered drain waits before cancelling live jobs")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch *journalDir {
	case "":
		*journalDir = filepath.Join(*cacheDir, "journal")
	case "off":
		*journalDir = ""
	}
	srv, err := service.New(service.Config{
		CacheDir:   *cacheDir,
		JournalDir: *journalDir,
		Workers:    *workers,
		QueueDepth: *queue,
		JobTimeout: *jobTimeout,
		Parallel:   *parallel,
		Log:        logw,
	})
	if err != nil {
		return err
	}
	if recovered := srv.Stats().Recovered; recovered > 0 {
		fmt.Fprintf(logw, "karyon-d: recovered %d interrupted job(s) from the journal\n", recovered)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		srv.Close()
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	fmt.Fprintf(logw, "karyon-d: listening on http://%s (build %s, cache %s)\n",
		ln.Addr(), srv.Build(), *cacheDir)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case s := <-sig:
		fmt.Fprintf(logw, "karyon-d: %v, draining (up to %s)\n", s, *drainTimeout)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop intake first so clients see 503s instead of hung connects, then
	// let in-flight result streams finish alongside the job drain.
	drainErr := srv.Drain(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(logw, "karyon-d: http shutdown: %v\n", err)
	}
	if drainErr != nil {
		fmt.Fprintf(logw, "karyon-d: drain forced cancellations: %v\n", drainErr)
	} else {
		fmt.Fprintln(logw, "karyon-d: drained cleanly")
	}
	return nil
}

// defaultCacheDir keeps run archives under the user cache dir so repeated
// daemon launches share one cache; the temp dir is the fallback.
func defaultCacheDir() string {
	if dir, err := os.UserCacheDir(); err == nil {
		return filepath.Join(dir, "karyon", "runs")
	}
	return filepath.Join(os.TempDir(), "karyon-runs")
}
