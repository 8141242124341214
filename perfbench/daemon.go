package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"karyon/internal/service"
	"karyon/internal/serviceclient"
)

const (
	// daemonClients closed-loop clients share one server with
	// daemonWorkers job workers.
	daemonClients = 2
	daemonWorkers = 2
	// Each client requests its own specs in blocks of specsPerBlock
	// distinct specs, each repeatsPerSpec times in a shuffled order, so
	// one request in repeatsPerSpec is a miss and the rest are hits.
	specsPerBlock  = 4
	repeatsPerSpec = 4
	// Set-up is timed as daemonSetupBatches batches of daemonSetupBatch
	// server start-ups.
	daemonSetupBatches = 15
	daemonSetupBatch   = 16
	// setupRefUs is the reference start-up's time in µs on the host the
	// benchmark was sized on; it only sets the scale of the daemon's
	// normalized setup_s.
	setupRefUs = 100.0
	// heapJobs bounds the jobs over which the live heap is sampled. The
	// server keeps every job's record, so its heap grows with the job
	// count; sampling a fixed count keeps heap_peak_mb from tracking the
	// throughput of the run instead of the memory a job costs.
	heapJobs = 2000
)

// daemon is one karyon-d server behind its real HTTP handler on a
// loopback listener, with its cache and journal in a fresh directory.
type daemon struct {
	dir  string
	srv  *service.Server
	hs   *http.Server
	url  string
	done chan error
}

// startDaemon opens a daemon and waits until it answers a health check.
func startDaemon(ctx context.Context, root string) (*daemon, error) {
	d, err := openDaemon(root)
	if err != nil {
		return nil, err
	}
	if err := d.health(ctx); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// openDaemon brings a server up: a fresh directory, service.New, and the
// loopback listener serving its handler.
func openDaemon(root string) (*daemon, error) {
	dir, err := os.MkdirTemp(root, "daemon-")
	if err != nil {
		return nil, err
	}
	cache := filepath.Join(dir, "cache")
	srv, err := service.New(service.Config{
		CacheDir:   cache,
		JournalDir: filepath.Join(cache, "journal"),
		Workers:    daemonWorkers,
		Log:        io.Discard,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		dir: dir, srv: srv, url: "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

func (d *daemon) health(ctx context.Context) error {
	if err := serviceclient.New(d.url).Health(ctx); err != nil {
		return fmt.Errorf("daemon health check: %w", err)
	}
	return nil
}

// stop shuts the listener and the server down, waits for both, and
// removes the server's directory.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // a forced close still ends Serve below
	<-d.done
	_ = d.srv.Drain(ctx) // jobs still running past the deadline are cancelled and awaited
	os.RemoveAll(d.dir)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// request is one job a client submits. first marks the first request of
// its spec, which must miss the cache.
type request struct {
	spec   service.JobSpec
	key    int
	first  bool
	simsec float64 // simulated seconds the job computes
}

// plan generates one client's request sequence from the seed.
type plan struct {
	rng    *rand.Rand
	base   int64
	next   int // next spec key
	queue  []request
	issued map[int]bool
}

func newPlan(seed int64, client int) *plan {
	return &plan{
		rng:    rand.New(rand.NewSource(seed*1_000_003 + int64(client))),
		base:   seed*1_000_000 + int64(client)*100_000,
		issued: map[int]bool{},
	}
}

// specFor is a small job: the last spec of every block is an
// intersection, the others are highways of 20 to 40 cars. Keeping the
// highways the majority keeps the median miss on one kind of job, so it
// does not flip between the two with the mix. The scenario seed makes
// every key a distinct cache entry.
func (p *plan) specFor(key int) (service.JobSpec, float64) {
	seed := p.base + int64(key) + 1
	if key%specsPerBlock == specsPerBlock-1 {
		return service.JobSpec{Scenario: "intersection", Seed: seed, Duration: "60s"}, 60
	}
	return service.JobSpec{Scenario: "highway", Seed: seed, Cars: 20 + p.rng.Intn(21), Duration: "20s"}, 20
}

func (p *plan) pop() request {
	if len(p.queue) == 0 {
		for i := 0; i < specsPerBlock; i++ {
			spec, simsec := p.specFor(p.next)
			for r := 0; r < repeatsPerSpec; r++ {
				p.queue = append(p.queue, request{spec: spec, key: p.next, simsec: simsec})
			}
			p.next++
		}
		p.rng.Shuffle(len(p.queue), func(i, j int) { p.queue[i], p.queue[j] = p.queue[j], p.queue[i] })
	}
	r := p.queue[0]
	p.queue = p.queue[1:]
	r.first = !p.issued[r.key]
	p.issued[r.key] = true
	return r
}

// jobSample is one completed request's measurements.
type jobSample struct {
	miss                    bool
	total, submit, ttfb     float64 // ms from submit start
	queueWait, run, runPerS float64 // server side, misses only
	simsec                  float64
	traced                  bool
	resultBytes             int
}

// clientStats collects one client's samples; each client owns its own.
type clientStats struct {
	samples   []jobSample
	attempted int
	failures  []string
	peak      heapPeak
}

func (cs *clientStats) fail(format string, args ...any) {
	cs.failures = append(cs.failures, fmt.Sprintf(format, args...))
}

// daemonLoad configures a closed-loop run against one daemon.
type daemonLoad struct {
	url         string
	seed        int64
	deadline    time.Time
	tr          *tracer
	corruptHits int // test hook: client 0 flips a byte in this many hit streams
	completed   atomic.Int64
}

// runClient submits requests one after another until the deadline: each
// is submitted, then its NDJSON result stream is read to the summary
// line. Misses must not be cached and must stream what the job's
// TraceHash says; hits must be cached and stream bytes with the same
// sha256 as their spec's first run.
func (l *daemonLoad) runClient(ctx context.Context, client int, cs *clientStats) {
	c := serviceclient.New(l.url)
	p := newPlan(l.seed, client)
	hashes := map[int]string{}
	corrupt := 0
	if client == 0 {
		corrupt = l.corruptHits
	}
	for n := 0; time.Now().Before(l.deadline); n++ {
		req := p.pop()
		run := client*1_000_000 + n + 1
		cs.attempted++
		tr := l.tr // every other request runs untraced
		if n%2 == 1 {
			tr = nil
		}
		rootID := tr.reserve()
		t0 := time.Now()
		st, err := c.Submit(ctx, req.spec)
		t1 := time.Now()
		tr.add("client.submit", rootID, run, t0, t1)
		if err != nil {
			cs.fail("client %d submit: %v", client, err)
			continue
		}
		streamID := tr.reserve()
		stream, first, last, err := readStream(ctx, c, st.ID)
		t3 := time.Now()
		tr.record(streamID, "client.stream", rootID, run, t1, t3)
		tr.record(rootID, "daemon.job", 0, run, t0, t3)
		if err != nil {
			cs.fail("client %d stream %.12s: %v", client, st.ID, err)
			continue
		}
		s := jobSample{
			miss: req.first, total: ms(t3.Sub(t0)), submit: ms(t1.Sub(t0)),
			ttfb: ms(first.Sub(t0)), resultBytes: len(stream), simsec: req.simsec, traced: tr != nil,
		}
		if last != service.LineSummary {
			cs.fail("client %d job %.12s ended with a %q line", client, st.ID, last)
			continue
		}
		if !req.first && corrupt > 0 {
			stream = bytes.Clone(stream)
			stream[len(stream)/2] ^= 0xff
			corrupt--
		}
		sum := sha256.Sum256(stream)
		got := hex.EncodeToString(sum[:])
		if req.first {
			if st.Cached {
				cs.fail("client %d job %.12s: first request was served from the cache", client, st.ID)
				continue
			}
			done, err := waitDone(ctx, c, st.ID)
			if err != nil {
				cs.fail("client %d status %.12s: %v", client, st.ID, err)
				continue
			}
			if done.TraceHash != got {
				cs.fail("client %d job %.12s: stream sha256 %.12s, trace hash %.12s", client, st.ID, got, done.TraceHash)
				continue
			}
			hashes[req.key] = got
			if done.StartedAt != nil && done.FinishedAt != nil {
				s.queueWait = ms(done.StartedAt.Sub(done.CreatedAt))
				s.run = ms(done.FinishedAt.Sub(*done.StartedAt))
				s.runPerS = s.run / req.simsec
				tr.add("service.queue", streamID, run, done.CreatedAt, *done.StartedAt)
				tr.add("service.run", streamID, run, *done.StartedAt, *done.FinishedAt)
			}
		} else {
			if !st.Cached {
				cs.fail("client %d job %.12s: repeated request was not a cache hit", client, st.ID)
				continue
			}
			if want := hashes[req.key]; got != want || st.TraceHash != want {
				cs.fail("client %d job %.12s: hit stream sha256 %.12s, spec's trace hash %.12s", client, st.ID, got, want)
				continue
			}
		}
		cs.samples = append(cs.samples, s)
		if l.completed.Add(1) <= heapJobs {
			cs.peak.sample()
		}
	}
}

// waitDone polls a job's status until it is terminal: the summary line
// reaches clients before the server has hashed and archived the stream.
func waitDone(ctx context.Context, c *serviceclient.Client, id string) (*service.Status, error) {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State == service.StateDone || st.State == service.StateFailed || st.State == service.StateCancelled {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("job %.12s still %s: %w", id, st.State, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// readStream reads a job's raw result stream up to its terminal line,
// returning the bytes, when the first line arrived, and the terminal
// line's type.
func readStream(ctx context.Context, c *serviceclient.Client, id string) ([]byte, time.Time, string, error) {
	body, err := c.Results(ctx, id)
	if err != nil {
		return nil, time.Time{}, "", err
	}
	defer body.Close()
	br := bufio.NewReaderSize(body, 64<<10)
	var out []byte
	var first time.Time
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 && line[len(line)-1] == '\n' {
			if first.IsZero() {
				first = time.Now()
			}
			out = append(out, line...)
			var l struct {
				Type string `json:"type"`
			}
			if jerr := json.Unmarshal(line, &l); jerr != nil {
				return nil, first, "", fmt.Errorf("bad stream line: %w", jerr)
			}
			if l.Type == service.LineSummary || l.Type == service.LineError {
				return out, first, l.Type, nil
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, first, "", fmt.Errorf("stream ended before its terminal line: %w", err)
		}
	}
}

// timeDaemonSetups times daemon start-ups in daemonSetupBatches batches of
// daemonSetupBatch and returns each batch's mean start-up, as measured
// and normalized. A start-up is a fresh cache and journal directory,
// service.New, and the listener up. Each daemon then answers a health
// check and is stopped, untimed, before the next starts. The health
// check's round trip is left out of the time: it took about two thirds of
// a start-up, and its cross-thread wake-ups made whole runs up to six
// times slower on a busy host. One start-up takes about 0.2 ms, mostly in
// system calls, so a sample is the mean of a batch. One untimed start-up
// first pays the one-off cost of the process's first listener and client.
//
// Those system calls' speed drifts with the host's file-system load,
// which the CPU reference loop does not track. So a reference start-up
// (refStartup) runs just before every start-up, and a batch's mean is
// scaled by setupRefUs over the batch's mean reference time.
func timeDaemonSetups(ctx context.Context, root string) (samples, error) {
	var setups samples
	// Flush what earlier processes left to write back first: start-ups
	// are file-system calls, and in about one run in five they ran five to
	// ten times slower while a previous run's cache files were written back.
	syscall.Sync()
	for b := -1; b < daemonSetupBatches; b++ {
		var took, ref time.Duration
		n := daemonSetupBatch
		if b < 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			r, err := refStartup(root)
			if err != nil {
				return samples{}, err
			}
			ref += r
			t0 := time.Now()
			d, err := openDaemon(root)
			if err != nil {
				return samples{}, err
			}
			took += time.Since(t0)
			err = d.health(ctx)
			d.stop()
			if err != nil {
				return samples{}, err
			}
		}
		if b >= 0 {
			setups.add(took.Seconds()/float64(n), setupRefUs/(ref.Seconds()*1e6/float64(n)))
		}
	}
	return setups, nil
}

// refStartup times the system calls a start-up makes, without the
// program: a temporary directory, and a cache and a journal directory
// in it, each created and read back, and a loopback listener. Only their
// creation is timed; all of it is removed afterwards.
func refStartup(root string) (time.Duration, error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(root, "ref-")
	if err != nil {
		return 0, err
	}
	cache := filepath.Join(dir, "cache")
	journal := filepath.Join(cache, "journal")
	for _, d := range []string{cache, journal} {
		if err = os.Mkdir(d, 0o755); err != nil {
			break
		}
		if _, err = os.ReadDir(d); err != nil {
			break
		}
	}
	var ln net.Listener
	if err == nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	took := time.Since(t0)
	if ln != nil {
		ln.Close()
	}
	os.RemoveAll(dir)
	return took, err
}

// runDaemonMixed measures karyon-d under a closed loop of two clients
// over a seeded mix of cache misses (simulate, archive, journal) and
// cache-hit replays.
func runDaemonMixed(ctx context.Context, cfg runConfig) (*outcome, error) {
	return daemonMixed(ctx, cfg, 0)
}

func daemonMixed(ctx context.Context, cfg runConfig, corruptHits int) (*outcome, error) {
	o := newOutcome()
	setups, err := timeDaemonSetups(ctx, cfg.scratch)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(ctx, cfg.scratch)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	load := &daemonLoad{url: d.url, seed: cfg.seed, tr: cfg.tr, corruptHits: corruptHits}
	rs := newRuntimeSampler()
	before := rs.full()
	start := time.Now()
	load.deadline = start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	stats := make([]clientStats, daemonClients)
	var wg sync.WaitGroup
	for i := range stats {
		stats[i].peak.rs = newRuntimeSampler()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			load.runClient(ctx, i, &stats[i])
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	after := rs.full()

	var all, hits, misses, hitTTFB, missTTFB, ttfb, hitSubmit, missSubmit, queue, runMs, runPerS []float64
	var hitsOn, hitsOff []float64
	var peak float64
	var resultBytes, simsec float64
	for _, cs := range stats {
		o.attempted += cs.attempted
		for _, f := range cs.failures {
			o.fail("%s", f)
		}
		peak = max(peak, cs.peak.mb())
		for _, s := range cs.samples {
			all = append(all, s.total)
			ttfb = append(ttfb, s.ttfb)
			resultBytes += float64(s.resultBytes)
			if s.miss {
				misses = append(misses, s.total)
				missTTFB = append(missTTFB, s.ttfb)
				missSubmit = append(missSubmit, s.submit)
				queue = append(queue, s.queueWait)
				runMs = append(runMs, s.run)
				runPerS = append(runPerS, s.runPerS)
				simsec += s.simsec
			} else {
				hits = append(hits, s.total)
				hitTTFB = append(hitTTFB, s.ttfb)
				hitSubmit = append(hitSubmit, s.submit)
				if s.traced {
					hitsOn = append(hitsOn, s.total)
				} else {
					hitsOff = append(hitsOff, s.total)
				}
			}
		}
	}
	st := d.srv.Stats()
	o.layer["service.errors"] = float64(o.failed) + float64(st.Failed) // client-side plus server-side
	o.check(st.Failed == 0, "daemon-mixed: %d jobs failed in the server", st.Failed)

	o.e2e["heap_peak_mb"] = peak
	// Raw wall times: the reference loop cannot run inside the closed loop
	// without competing with the clients and the server. Timed before and
	// after the load, or between one-second segments of it, it made these
	// figures less steady, not more: the loop's speed did not follow the
	// daemon's. The start-ups are normalized in timeDaemonSetups.
	cost, latency := samples{runPerS, runPerS}, samples{all, all}
	setTimes(o, &cost, &latency, &setups, "job")
	hl, ml := summarize(hits), summarize(misses)
	o.meta["hit_samples"], o.meta["hit_tail_percentile"] = hl.N, hl.TailP
	o.meta["miss_samples"], o.meta["miss_tail_percentile"] = ml.N, ml.TailP

	o.layer["service.queue_wait_ms"] = median(queue)
	o.layer["service.run_ms"] = median(runMs)
	o.layer["service.submit_hit_ms"] = median(hitSubmit)
	o.layer["service.submit_miss_ms"] = median(missSubmit)
	o.layer["service.ttfb_hit_ms"] = median(hitTTFB)
	o.layer["service.ttfb_miss_ms"] = median(missTTFB)
	o.layer["service.hit_p50_ms"], o.layer["service.hit_tail_ms"] = hl.P50, hl.TailMs
	o.layer["service.miss_p50_ms"], o.layer["service.miss_tail_ms"] = ml.P50, ml.TailMs
	o.layer["service.ttfb_p50_ms"] = median(ttfb)
	o.layer["service.jobs_per_s"] = float64(len(all)) / elapsed.Seconds()
	if st.Submitted > 0 {
		o.layer["service.hit_ratio"] = float64(st.CacheHits+st.Deduped) / float64(st.Submitted)
	}
	o.layer["service.deduped"] = float64(st.Deduped)
	if len(all) > 0 {
		o.layer["service.result_bytes"] = resultBytes / float64(len(all))
	}
	o.layer["service.cache_bytes"] = float64(dirBytes(d.dir))
	o.layer["runtime.allocs_per_simsec"] = float64(after.allocs-before.allocs) / max(simsec, 1)
	o.layer["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	o.layer["runtime.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
	if cfg.tr != nil && len(hitsOn) > 0 && len(hitsOff) > 0 {
		o.layer["bench.trace_overhead_frac"] = median(hitsOn)/median(hitsOff) - 1
	}
	return o, nil
}
