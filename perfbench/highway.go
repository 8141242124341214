package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"time"

	"karyon/internal/sim"
	"karyon/internal/trace"
	"karyon/internal/wireless"
	"karyon/internal/world"
)

const (
	// warmup runs before timing so scratch buffers and lazy per-car
	// pipelines reach their high-water marks; it counts as set-up.
	warmup = 2 * sim.Second
	// A highway-v2v episode times the simulated seconds from warmup to
	// horizon. The cost of a simulated second grows as a run goes on, so
	// every episode covers the same simulated span of a fresh world: a
	// faster host runs more episodes, not later and dearer seconds. At
	// horizon the fingerprint is compared with an unsharded reference.
	horizon = 30 * sim.Second

	// A radio episode records warmup plus recordSeconds, with a
	// checkpoint every checkpointEvery windows. Replays then verify
	// windows replayFrom..replayTo, which start just past a checkpoint.
	recordSeconds   = 20
	checkpointEvery = 50
	replayFrom      = 151
	replayTo        = 160
	minReplays      = 20
	jamEvery        = 2 * sim.Second
	jamBurst        = 450 * sim.Millisecond
)

// highwayConfig is the 1200-car, 36 km ring both simulation workloads
// share. highway-v2v runs it on one lane, as BenchmarkFullStackHighwaySharded
// and the ROADMAP profile do: the two-lane ring collides (see README.md),
// which its zero-collision check would fail. radio keeps two lanes, so
// lane-change grants still cross the barrier and go into the trace, and
// routes beacons through the slot-level medium with carrier sense on two
// channels instead of abstract loss draws.
func highwayConfig(radio bool) world.HighwayConfig {
	cfg := world.DefaultHighwayConfig()
	cfg.Length = 36000
	cfg.Cars = 1200
	cfg.Loss = 0.05
	if radio {
		cfg.Lanes = 2
		cfg.Medium = true
		cfg.CarrierSense = true
		cfg.Channels = 2
	}
	return cfg
}

// fingerprint is the width-invariant summary of a highway run.
type fingerprint struct {
	Events                uint64
	Sent, Delivered, Lost int64
	MeanSpeed, Flow       float64
	Collisions            int64
}

func fingerprintOf(h *world.Highway) fingerprint {
	sent, delivered, lost := h.BeaconStats()
	return fingerprint{
		Events: h.Kernel().Executed(), Sent: sent, Delivered: delivered, Lost: lost,
		MeanSpeed: h.MeanSpeed(), Flow: h.Flow(), Collisions: h.Collisions,
	}
}

// simRun accumulates the timed part of a simulation workload over its
// episodes: the set-up time of each world, the wall time of each
// simulated second (split by traced and untraced calls), the window
// probe's sums, and the runtime counters over the timed calls only.
type simRun struct {
	tr          *tracer
	cal         calibrator
	probe       *windowProbe
	setups      []float64
	perSec      samples
	windows     samples // every timed window, open to barrier end
	on, off     []float64
	peak        heapPeak
	allocs, gcs uint64
	pauseNs     uint64
}

func newSimRun(tr *tracer) *simRun {
	return &simRun{tr: tr, probe: &windowProbe{tr: tr}, peak: heapPeak{rs: newRuntimeSampler()}}
}

// start builds a world (build includes the warm-up) and times it as
// set-up. A full GC runs first, so the previous world's garbage is not
// collected on this one's clock. The probe lets go of the previous world
// first: otherwise a GC during this build would count both worlds as live.
func (r *simRun) start(build func() (*world.Highway, error)) (*world.Highway, error) {
	r.probe.sk = nil
	runtime.GC()
	t0 := time.Now()
	h, err := build()
	if err != nil {
		return nil, err
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	r.probe.attach(h.Kernel())
	return h, nil
}

// timed runs n one-second calls. When tracing, half the calls run
// untraced so the tracing overhead can be read off one run; the
// on-off-off-on pattern keeps both halves in step with the radio run's
// two-second jam period.
func (r *simRun) timed(ctx context.Context, o *outcome, h *world.Highway, n int) error {
	before := r.peak.rs.full()
	defer func() {
		after := r.peak.rs.full()
		r.allocs += after.allocs - before.allocs
		r.gcs += after.gcCycles - before.gcCycles
		r.pauseNs += after.pauseNs - before.pauseNs
	}()
	defer func() { r.probe.tr = r.tr }()
	prev := r.cal.sample()
	for i := 0; i < n; i++ {
		ctr := r.tr
		if i%4 == 1 || i%4 == 2 {
			ctr = nil
		}
		r.probe.tr = ctr
		run := len(r.perSec.raw) + 1
		w0 := len(r.probe.windowsMs)
		id := ctr.reserve()
		r.probe.begin(id, run)
		start := time.Now()
		err := h.RunContext(ctx, sim.Second)
		end := time.Now()
		next := r.cal.sample()
		f := factor(prev, next)
		prev = next
		ctr.record(id, "run.second", 0, run, start, end)
		o.attempted++
		if err != nil {
			o.fail("simulated second %d: %v", run, err)
			return err
		}
		d := ms(end.Sub(start))
		r.perSec.add(d, f)
		for _, w := range r.probe.windowsMs[w0:] {
			r.windows.add(w, f)
		}
		if ctr != nil {
			r.on = append(r.on, d)
		} else {
			r.off = append(r.off, d)
		}
		r.peak.sample()
	}
	return nil
}

// setupSamples returns the set-up times, normalized by the run's scale.
func (r *simRun) setupSamples() *samples {
	var s samples
	for _, x := range r.setups {
		s.add(x, r.cal.scale())
	}
	return &s
}

// report fills the metrics both simulation workloads share.
func (r *simRun) report(o *outcome, h *world.Highway) {
	simsec := float64(max(len(r.perSec.raw), 1))
	o.e2e["heap_peak_mb"] = r.peak.mb()
	o.meta["simsec_samples"] = len(r.perSec.raw)

	p := r.probe
	windows := float64(max(p.windows, 1))
	o.layer["sim.shard_busy_ms"] = ms(p.busy) / windows / float64(len(p.done))
	o.layer["sim.straggler_ms"] = ms(p.straggler) / windows
	o.layer["sim.barrier_ms"] = ms(p.barrier) / windows
	o.layer["sim.barrier_frac"] = float64(p.barrier) / float64(max(p.all, 1))
	o.layer["sim.events_per_window"] = float64(p.events) / windows
	o.layer["sim.clamped"] = float64(h.Kernel().Clamped())
	o.layer["world.collisions"] = float64(h.Collisions)
	o.layer["runtime.allocs_per_simsec"] = float64(r.allocs) / simsec
	o.layer["runtime.gc_cycles"] = float64(r.gcs)
	o.layer["runtime.gc_pause_ms"] = float64(r.pauseNs) / 1e6
	if len(r.on) > 0 && len(r.off) > 0 {
		o.layer["bench.trace_overhead_frac"] = median(r.on)/median(r.off) - 1
	}
}

// deadline is share of the run's budget from now.
func deadline(cfg runConfig, share float64) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * share * float64(time.Second)))
}

// runHighwayV2V times full-stack simulated seconds on the abstract V2V
// path, episode after episode until the budget is spent. Every episode
// is checked for collisions, clamped cross-shard messages and a
// fingerprint equal to an unsharded reference run of the same seed.
func runHighwayV2V(ctx context.Context, cfg runConfig) (*outcome, error) {
	o := newOutcome()
	hcfg := highwayConfig(false)
	ref, err := referenceFingerprint(ctx, cfg.seed, hcfg)
	if err != nil {
		return nil, err
	}
	r := newSimRun(cfg.tr)
	end := deadline(cfg, 1)
	var h *world.Highway
	var delivered, lost, crossers int64
	for ep := 0; ep == 0 || time.Now().Before(end); ep++ {
		h = nil // let the previous world go before the next build
		if h, err = r.start(func() (*world.Highway, error) {
			h, err := world.BuildHighway(cfg.seed, shards, hcfg)
			if err != nil {
				return nil, err
			}
			if err := h.Start(); err != nil {
				return nil, err
			}
			return h, h.RunContext(ctx, warmup)
		}); err != nil {
			return nil, err
		}
		_, d0, l0 := h.BeaconStats()
		c0 := h.Crossers
		if err := r.timed(ctx, o, h, int((horizon-warmup)/sim.Second)); err != nil {
			break
		}
		_, d1, l1 := h.BeaconStats()
		delivered, lost, crossers = delivered+d1-d0, lost+l1-l0, crossers+h.Crossers-c0

		fp := fingerprintOf(h)
		o.meta["fingerprint"] = fp
		o.check(h.Collisions == 0, "highway-v2v: %d collisions", h.Collisions)
		o.check(h.Kernel().Clamped() == 0, "highway-v2v: %d clamped messages", h.Kernel().Clamped())
		o.check(fp == ref, "highway-v2v: fingerprint at %v %+v, unsharded reference %+v", horizon, fp, ref)
	}
	r.report(o, h)
	r.cal.report(o)
	setTimes(o, &r.perSec, &r.windows, r.setupSamples(), "window")

	simsec := float64(max(len(r.perSec.raw), 1))
	o.layer["world.beacons_delivered_per_simsec"] = float64(delivered) / simsec
	if delivered+lost > 0 {
		o.layer["world.beacon_delivery_ratio"] = float64(delivered) / float64(delivered+lost)
	}
	o.layer["world.crossers_per_simsec"] = float64(crossers) / simsec
	return o, nil
}

// referenceFingerprint runs the same seed unsharded, untimed, to horizon.
func referenceFingerprint(ctx context.Context, seed int64, cfg world.HighwayConfig) (fingerprint, error) {
	h, err := world.BuildHighway(seed, 1, cfg)
	if err != nil {
		return fingerprint{}, err
	}
	if err := h.Start(); err != nil {
		return fingerprint{}, err
	}
	if err := h.RunContext(ctx, horizon); err != nil {
		return fingerprint{}, err
	}
	return fingerprintOf(h), nil
}

// radioWorld builds the radio ring with its jam schedule and, when sink
// is non-nil, a recorder writing to it, then warms it up.
func radioWorld(ctx context.Context, seed int64, sink *timedWriter) (*world.Highway, error) {
	hcfg := highwayConfig(true)
	h, err := world.BuildHighway(seed, shards, hcfg)
	if err != nil {
		return nil, err
	}
	if err := h.Start(); err != nil {
		return nil, err
	}
	dur := warmup + recordSeconds*sim.Second
	var jams []world.JamSpec
	for t := jamEvery; t < dur; t += jamEvery {
		jams = append(jams, world.JamSpec{At: t, Burst: jamBurst})
		h.Schedule(t, func() { h.JamV2V(jamBurst) })
	}
	if sink != nil {
		spec := world.TraceSpec{Scenario: "megahighway", Seed: seed, Shards: shards, Duration: dur, Config: hcfg, Jams: jams}
		if err := h.RecordTo(sink, spec, checkpointEvery); err != nil {
			return nil, err
		}
	}
	return h, h.RunContext(ctx, warmup)
}

// runRadioRecordReplay records runs over the slot-level radio with jam
// bursts into in-memory traces, timing each recorded second, for half
// the budget. It then replays a fixed window range of the last trace
// from its checkpoint until the budget is spent, checking every replay
// for divergence and its window count.
func runRadioRecordReplay(ctx context.Context, cfg runConfig) (*outcome, error) {
	o := newOutcome()
	end := deadline(cfg, 1)
	recordEnd := deadline(cfg, 0.5)
	r := newSimRun(cfg.tr)
	var h *world.Highway
	var sink *timedWriter
	var medium wireless.ShardedStats
	var sinkWrites time.Duration
	var first [sha256.Size]byte
	for ep := 0; ep == 0 || time.Now().Before(recordEnd); ep++ {
		h, sink = nil, &timedWriter{}
		var err error
		if h, err = r.start(func() (*world.Highway, error) {
			return radioWorld(ctx, cfg.seed, sink)
		}); err != nil {
			return nil, err
		}
		sink.probe = r.probe
		m0, w0 := h.MediumStats(), sink.writes
		if err := r.timed(ctx, o, h, recordSeconds); err != nil {
			return o, nil
		}
		sink.probe = nil
		medium = addMedium(medium, h.MediumStats(), m0)
		sinkWrites += sink.writes - w0
		o.attempted++
		if err := h.FinishRecording(); err != nil {
			o.fail("finishing recording %d: %v", ep+1, err)
			return o, nil
		}
		// Only a digest of the first recording is kept, so no earlier
		// trace stays live and counts towards the heap.
		sum := sink.sum()
		if ep == 0 {
			first = sum
		}
		o.check(sum == first, "recording %d differs from the first recording of the same seed", ep+1)
	}
	r.report(o, h)
	simsec := float64(max(len(r.perSec.raw), 1))
	reportMedium(o, medium, simsec)

	totalWindows := float64((warmup + recordSeconds*sim.Second) / h.Kernel().Window())
	o.layer["trace.bytes_per_window"] = float64(sink.size) / totalWindows
	o.layer["trace.mb_per_simsec"] = float64(sink.size) / (1 << 20) / (float64(warmup)/float64(sim.Second) + recordSeconds)
	o.layer["trace.sink_write_ms"] = ms(sinkWrites) / simsec
	o.meta["trace_bytes"] = sink.size
	// The recorded world and the sink's chunks are done with; holding them
	// through the replays would count them in their heap, and collecting
	// them would be charged to the first replay.
	data := sink.bytes()
	h, sink, r.probe.sk = nil, nil, nil
	runtime.GC()

	// At least minReplays replays, so the latency tail has samples.
	want := replayTo - (replayFrom-1)/checkpointEvery*checkpointEvery
	var replays samples
	prev := r.cal.sample()
	for i := 0; i < minReplays || time.Now().Before(end); i++ {
		t0 := time.Now()
		res, err := world.ReplayTrace(data, world.ReplayOptions{From: replayFrom, To: replayTo})
		t1 := time.Now()
		next := r.cal.sample()
		f := factor(prev, next)
		prev = next
		cfg.tr.add("world.replay", 0, 1_000_000+i, t0, t1)
		o.attempted++
		var div *world.DivergenceError
		switch {
		case errors.As(err, &div):
			o.fail("replay %d diverged: %v", i+1, err)
			continue
		case err != nil:
			o.fail("replay %d: %v", i+1, err)
			continue
		case res.Windows != want:
			o.fail("replay %d verified %d windows, want %d", i+1, res.Windows, want)
			continue
		}
		replays.add(ms(t1.Sub(t0)), f)
		r.peak.sample()
	}
	o.e2e["heap_peak_mb"] = r.peak.mb()
	r.cal.report(o)
	setTimes(o, &r.perSec, &replays, r.setupSamples(), "replay")
	o.layer["world.replay_ms"] = median(replays.raw)
	o.layer["world.replay_windows_verified"] = float64(want)
	o.layer["world.replay_ms_per_window"] = median(replays.raw) / float64(want)

	if cfg.tr != nil {
		if err := traceLayerExtras(ctx, o, cfg, data); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// addMedium adds the medium counters accumulated between two readings.
func addMedium(sum, after, before wireless.ShardedStats) wireless.ShardedStats {
	sum.Sent += after.Sent - before.Sent
	sum.Deferred += after.Deferred - before.Deferred
	sum.Delivered += after.Delivered - before.Delivered
	sum.Collisions += after.Collisions - before.Collisions
	sum.Losses += after.Losses - before.Losses
	sum.Jammed += after.Jammed - before.Jammed
	sum.OutOfRange += after.OutOfRange - before.OutOfRange
	sum.Retries += after.Retries - before.Retries
	return sum
}

func reportMedium(o *outcome, m wireless.ShardedStats, simsec float64) {
	o.layer["wireless.sent_per_simsec"] = float64(m.Sent) / simsec
	o.layer["wireless.delivery_ratio"] = m.DeliveryRatio()
	o.layer["wireless.collisions_per_simsec"] = float64(m.Collisions) / simsec
	o.layer["wireless.deferred_per_simsec"] = float64(m.Deferred) / simsec
	o.layer["wireless.retries_per_simsec"] = float64(m.Retries) / simsec
	if visits := m.Delivered + m.Collisions + m.Losses + m.Jammed + m.OutOfRange; visits > 0 {
		o.layer["wireless.in_range_frac"] = float64(visits-m.OutOfRange) / float64(visits)
	}
}

// traceLayerExtras measures what only the traced radio run reports:
// trace parsing on its own, checkpoint size, and the recording overhead.
func traceLayerExtras(ctx context.Context, o *outcome, cfg runConfig, data []byte) error {
	var parses []float64
	var c *trace.Contents
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		var err error
		c, err = trace.Parse(data)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("parsing the recorded trace: %w", err)
		}
		cfg.tr.add("trace.parse", 0, 2_000_000+i, t0, t1)
		parses = append(parses, ms(t1.Sub(t0)))
	}
	o.layer["trace.parse_ms"] = median(parses)
	var ckBytes int
	for _, ck := range c.Checkpoints {
		ckBytes += len(ck.State)
	}
	if len(c.Checkpoints) > 0 {
		o.layer["trace.checkpoint_bytes"] = float64(ckBytes) / float64(len(c.Checkpoints))
	}
	overhead, err := recordOverhead(ctx, cfg.seed)
	if err != nil {
		return err
	}
	o.layer["trace.record_overhead_frac"] = overhead
	return nil
}

// recordOverhead returns the share by which recording slows a simulated
// second down. A recorded and an unrecorded world of the same seed, both
// without the window probe, advance one simulated second each in turn,
// alternating which goes first, so host drift reaches both alike. The
// result is the median of the per-second ratios, minus 1.
func recordOverhead(ctx context.Context, seed int64) (float64, error) {
	runtime.GC()
	rec, err := radioWorld(ctx, seed, &timedWriter{})
	if err != nil {
		return 0, err
	}
	plain, err := radioWorld(ctx, seed, nil)
	if err != nil {
		return 0, err
	}
	second := func(h *world.Highway) (float64, error) {
		t0 := time.Now()
		err := h.RunContext(ctx, sim.Second)
		return ms(time.Since(t0)), err
	}
	var ratios []float64
	for i := 0; i < recordSeconds; i++ {
		first, next := rec, plain
		if i%2 == 1 {
			first, next = plain, rec
		}
		a, err := second(first)
		if err != nil {
			return 0, err
		}
		b, err := second(next)
		if err != nil {
			return 0, err
		}
		if i%2 == 1 {
			a, b = b, a
		}
		ratios = append(ratios, a/b)
	}
	return median(ratios) - 1, nil
}
