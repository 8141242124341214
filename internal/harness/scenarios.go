package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"karyon/internal/avionics"
	"karyon/internal/core"
	"karyon/internal/faultinject"
	"karyon/internal/metrics"
	"karyon/internal/sim"
	"karyon/internal/world"
)

// HighwayScenario runs the multi-car highway world under one LoS policy,
// optionally under a reproducible fault campaign — the CLI counterpart of
// the E2/E12 experiments, no registry needed. Every replica runs on the
// partitioned engine (width 1 when unsharded), so the output is
// byte-identical for every shard width.
type HighwayScenario struct {
	Duration time.Duration
	Cars     int
	// Mode is adaptive, fixed1, fixed2, fixed3, or reckless.
	Mode string
	// SensorFaultRate injects this many randomized sensor/disturbance/jam
	// campaign events per simulated minute (0 disables the campaign).
	SensorFaultRate float64
	// JamEvery/JamBurst jam the V2V channel for JamBurst every JamEvery
	// (both must be positive to take effect) — reproducible beacon-loss
	// bursts, the paper's inaccessibility periods.
	JamEvery time.Duration
	JamBurst time.Duration
	// Medium routes V2V through the slot-level sharded radio (airtime,
	// collisions, carrier sense, jam windows) instead of abstract loss
	// draws; Channels sets its orthogonal channel count.
	Medium   bool
	Channels int
	// Record writes a record/replay trace of the run. The trace spec
	// cannot reproduce campaign injections, so recording requires
	// SensorFaultRate 0.
	Record Recording
}

// Name implements Scenario.
func (s HighwayScenario) Name() string { return "highway" }

// Run implements Scenario.
func (s HighwayScenario) Run(ctx context.Context, seed int64, shards int) (*metrics.Result, error) {
	if s.Record.Path != "" && s.SensorFaultRate > 0 {
		return nil, errors.New("recording cannot reproduce a fault campaign; disable the fault rate")
	}
	cfg := world.DefaultHighwayConfig()
	cfg.Cars = s.Cars
	cfg.Medium = s.Medium
	cfg.Channels = s.Channels
	cfg.CarrierSense = s.Medium // CSMA by default on the slot-level radio
	switch s.Mode {
	case "adaptive":
		cfg.Mode = world.ModeAdaptive
	case "fixed1", "fixed2", "fixed3":
		cfg.Mode = world.ModeFixed
		cfg.FixedLoS = core.LoS(s.Mode[len(s.Mode)-1] - '0')
	case "reckless":
		cfg.Mode = world.ModeReckless
		cfg.FixedLoS = 3
	default:
		return nil, fmt.Errorf("unknown mode %q", s.Mode)
	}
	var rep *faultinject.Report
	var drive func(h *world.Highway, dur sim.Time) error
	if s.SensorFaultRate > 0 {
		drive = func(h *world.Highway, dur sim.Time) error {
			events := int(s.SensorFaultRate*s.Duration.Minutes() + 0.5)
			campaign, err := faultinject.Generate(sim.NewStream(seed, 9001, 0).Rand, faultinject.GenerateConfig{
				Duration: dur,
				Warmup:   dur / 10,
				Events:   events,
				Targets:  cfg.Cars,
			})
			if err != nil {
				return err
			}
			rep, err = faultinject.RunOnHighway(ctx, h, campaign, dur)
			return err
		}
	}
	h, err := ring{s.Name(), cfg, s.Duration, s.JamEvery, s.JamBurst, s.Record}.run(ctx, seed, shards, drive)
	if err != nil {
		return nil, err
	}
	res := metrics.NewResult(fmt.Sprintf("highway: %d cars, %s simulated", cfg.Cars, s.Duration))
	levels := map[core.LoS]int{}
	for _, c := range h.Cars() {
		levels[c.LoS()]++
	}
	rec := res.Record("mode", s.Mode).
		Int("events", int64(h.Kernel().Executed())).
		Val("mean speed m/s", h.MeanSpeed(), metrics.F2).
		Val("flow veh/h", h.Flow(), metrics.F2).
		Val("min timegap s", h.TimeGaps.Min(), metrics.F2).
		Val("p5 timegap s", h.TimeGaps.Percentile(5), metrics.F2).
		Int("collisions", h.Collisions).
		Int("final LoS1", int64(levels[1])).
		Int("final LoS2", int64(levels[2])).
		Int("final LoS3", int64(levels[3]))
	if rep != nil {
		var injected int64
		for _, n := range rep.Injected {
			injected += int64(n)
		}
		rec.Int("faults injected", injected).
			Val("fault coverage", rep.Coverage(), metrics.Pct).
			Val("det.p95 ms", rep.DetectionLatencies.Percentile(95), metrics.F2)
	}
	if s.Medium {
		recordMediumStats(rec, h)
	}
	return res, nil
}

// Recording asks a ring-world run (highway, megahighway) to write a
// record/replay trace: windows, barrier decisions, digests and periodic
// checkpoints (see internal/world record.go). It is set on a built
// scenario through WithRecording and never travels in a job spec. A
// trace captures exactly one run, so callers record a single replica.
type Recording struct {
	// Path is the trace file; empty disables recording.
	Path string
	// CheckpointEvery is the checkpoint interval in windows (0 = 50).
	CheckpointEvery int
	// PerturbWindow > 0 forces car 0 to brake at that window's barrier,
	// the deliberate-divergence knob the bisect tooling is tested with.
	PerturbWindow uint64
}

// WithRecording returns s set to record r. Only the ring worlds record.
func WithRecording(s Scenario, r Recording) (Scenario, error) {
	switch sc := s.(type) {
	case HighwayScenario:
		sc.Record = r
		return sc, nil
	case MegaHighwayScenario:
		sc.Record = r
		return sc, nil
	}
	return nil, fmt.Errorf("recording supports highway and megahighway, not %q", s.Name())
}

// ring is one run of the highway ring world, the single definition of
// what a (recorded) ring run is for both ring scenarios.
type ring struct {
	name               string
	cfg                world.HighwayConfig
	duration           time.Duration
	jamEvery, jamBurst time.Duration
	rec                Recording
}

// run builds and starts the world, schedules the jam bursts, attaches the
// recorder, drives the world for the duration (drive nil runs it plainly
// under ctx) and closes the trace.
func (r ring) run(ctx context.Context, seed int64, shards int, drive func(h *world.Highway, dur sim.Time) error) (*world.Highway, error) {
	h, err := world.BuildHighway(seed, shards, r.cfg)
	if err != nil {
		return nil, err
	}
	if err := h.Start(); err != nil {
		return nil, err
	}
	dur := sim.FromDuration(r.duration)
	scheduleJams(h, r.jamEvery, r.jamBurst, dur)
	var trace *os.File
	if r.rec.Path != "" {
		if trace, err = os.Create(r.rec.Path); err != nil {
			return nil, fmt.Errorf("harness: creating trace %s: %w", r.rec.Path, err)
		}
		defer trace.Close() // for the error paths; success checks Close below
		every := r.rec.CheckpointEvery
		if every <= 0 {
			every = 50
		}
		spec := world.TraceSpec{
			Scenario: r.name, Seed: seed, Shards: shards, Duration: dur,
			Config: r.cfg, Jams: jamSpecs(r.jamEvery, r.jamBurst, dur),
			PerturbWindow: r.rec.PerturbWindow,
		}
		if err := h.RecordTo(trace, spec, every); err != nil {
			return nil, err
		}
	}
	if drive == nil {
		err = h.RunContext(ctx, dur)
	} else {
		err = drive(h, dur)
	}
	if err != nil {
		return nil, err
	}
	if trace != nil {
		if err := h.FinishRecording(); err != nil {
			return nil, err
		}
		if err := trace.Close(); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// jammable is a world that accepts barrier-scheduled V2V jam bursts.
type jammable interface {
	Schedule(at sim.Time, fn func())
	JamV2V(d sim.Time)
}

// scheduleJams schedules a JamV2V burst every jamEvery until dur. Both
// knobs must be positive *after* conversion to virtual time: a
// sub-microsecond period truncates to zero and would otherwise loop
// forever without advancing. The schedule is derived through jamSpecs so
// a recorded trace's jam list is, by construction, exactly what the run
// executed.
func scheduleJams(w jammable, jamEvery, jamBurst time.Duration, dur sim.Time) {
	for _, j := range jamSpecs(jamEvery, jamBurst, dur) {
		burst := j.Burst
		w.Schedule(j.At, func() { w.JamV2V(burst) })
	}
}

// jamSpecs materializes the periodic jam schedule as the concrete burst
// list that rides a trace header.
func jamSpecs(jamEvery, jamBurst time.Duration, dur sim.Time) []world.JamSpec {
	every, burst := sim.FromDuration(jamEvery), sim.FromDuration(jamBurst)
	if every <= 0 || burst <= 0 {
		return nil
	}
	var out []world.JamSpec
	for t := every; t < dur; t += every {
		out = append(out, world.JamSpec{At: t, Burst: burst})
	}
	return out
}

// recordMediumStats appends the slot-level radio's accounting to a world
// record: delivery ratio, contention outcomes, and the observed
// inaccessibility durations.
func recordMediumStats(rec *metrics.Record, h *world.Highway) {
	st := h.MediumStats()
	inacc := h.Inaccessibility()
	rec.Val("delivery ratio", st.DeliveryRatio(), metrics.Pct).
		Int("radio collisions", st.Collisions).
		Int("radio deferred", st.Deferred).
		Int("radio retried", st.Retries).
		Int("radio jammed", st.Jammed).
		Val("inacc p95 ms", inacc.Percentile(95), metrics.F2).
		Val("inacc max ms", inacc.Max(), metrics.F2)
}

// MegaHighwayScenario runs the large-world highway: the same full-stack
// engine as HighwayScenario, sized so that one core cannot hold it — the
// reason the harness grew a shards dimension. The output is byte-identical
// for every shard count.
type MegaHighwayScenario struct {
	Duration time.Duration
	Cars     int
	// Length is the ring circumference in meters (0 = default 10 km).
	Length float64
	// Loss is the per-beacon loss probability, used verbatim — unlike
	// Cars/Length, zero means a genuinely lossless channel, not "use the
	// config default" (the CLI flag supplies the 5% default, and a
	// lossless run must remain expressible).
	Loss float64
	// V2VRange is the beacon reach in meters (0 = default 300). It bounds
	// the widest partition: each ring arc must be at least this long, so a
	// 300 km ring at 250 m reach admits 1200 shards.
	V2VRange float64
	// Medium routes V2V through the slot-level sharded radio; Channels
	// sets its orthogonal channel count.
	Medium   bool
	Channels int
	// JamEvery/JamBurst add periodic V2V inaccessibility bursts (both
	// must be positive to take effect).
	JamEvery time.Duration
	JamBurst time.Duration
	// Record writes a record/replay trace of the run.
	Record Recording
}

// Name implements Scenario.
func (s MegaHighwayScenario) Name() string { return "megahighway" }

// Run implements Scenario.
func (s MegaHighwayScenario) Run(ctx context.Context, seed int64, shards int) (*metrics.Result, error) {
	cfg := world.DefaultHighwayConfig()
	cfg.Length = 10000
	cfg.Cars = 200
	cfg.V2VRange = 300
	if s.Cars > 0 {
		cfg.Cars = s.Cars
	}
	if s.Length > 0 {
		cfg.Length = s.Length
	}
	if s.V2VRange > 0 {
		cfg.V2VRange = s.V2VRange
	}
	cfg.Loss = s.Loss
	cfg.Medium = s.Medium
	cfg.Channels = s.Channels
	cfg.CarrierSense = s.Medium
	h, err := ring{s.Name(), cfg, s.Duration, s.JamEvery, s.JamBurst, s.Record}.run(ctx, seed, shards, nil)
	if err != nil {
		return nil, err
	}
	sent, delivered, lost := h.BeaconStats()
	var ebrakes int64
	for _, c := range h.Cars() {
		ebrakes += c.EmergencyBrakes
	}
	res := metrics.NewResult(fmt.Sprintf("megahighway: %d cars on a %.0f m ring", cfg.Cars, cfg.Length))
	rec := res.Record().
		Val("mean speed m/s", h.MeanSpeed(), metrics.F2).
		Val("flow veh/h", h.Flow(), metrics.F2).
		Val("min timegap s", h.TimeGaps.Min(), metrics.F2).
		Val("p5 timegap s", h.TimeGaps.Percentile(5), metrics.F2).
		Int("collisions", h.Collisions).
		Int("emergency brakes", ebrakes).
		Int("beacons sent", sent).
		Int("beacons delivered", delivered).
		Int("beacons lost", lost).
		Int("events", int64(h.Kernel().Executed()))
	if s.Medium {
		recordMediumStats(rec, h)
	}
	return res, nil
}

// IntersectionScenario runs the traffic-light intersection, optionally
// failing the physical light (the light-failure-time knob) and engaging
// the virtual backup. Quadrants map onto shard kernels.
type IntersectionScenario struct {
	Duration      time.Duration
	FailAt        time.Duration
	VirtualBackup bool
	// Medium routes the light's I-am-alive beacons through the slot-level
	// sharded radio; Channels sets its channel count.
	Medium   bool
	Channels int
	// JamEvery/JamBurst add periodic V2V inaccessibility bursts (both
	// must be positive to take effect).
	JamEvery time.Duration
	JamBurst time.Duration
}

// Name implements Scenario.
func (s IntersectionScenario) Name() string { return "intersection" }

// Run implements Scenario.
func (s IntersectionScenario) Run(ctx context.Context, seed int64, shards int) (*metrics.Result, error) {
	cfg := world.DefaultIntersectionConfig()
	cfg.LightFailsAt = sim.FromDuration(s.FailAt)
	cfg.VirtualBackup = s.VirtualBackup
	cfg.Medium = s.Medium
	cfg.Channels = s.Channels
	w, err := world.BuildIntersection(seed, shards, cfg)
	if err != nil {
		return nil, err
	}
	if err := w.Start(); err != nil {
		return nil, err
	}
	dur := sim.FromDuration(s.Duration)
	scheduleJams(w, s.JamEvery, s.JamBurst, dur)
	if err := w.RunContext(ctx, dur); err != nil {
		return nil, err
	}
	res := metrics.NewResult(fmt.Sprintf("intersection: %s simulated", s.Duration))
	res.Record().
		Bool("light alive", w.LightAlive()).
		Int("crossed NS", w.Crossed[world.RoadNS]).
		Int("crossed EW", w.Crossed[world.RoadEW]).
		Val("wait p95 s", w.WaitTimes.Percentile(95), metrics.F2).
		Int("conflicts", w.Conflicts).
		Int("events", int64(w.Kernel().Executed()))
	w.Stop()
	return res, nil
}

// EncounterScenario runs one two-aircraft avionic encounter geometry on a
// single kernel; it has no sharded world and ignores the shard width.
type EncounterScenario struct {
	// Geometry is same-direction, leveled-crossing, or level-change.
	Geometry string
	// Collaborative selects ADS-B traffic; false means voice-only.
	Collaborative bool
}

// Name implements Scenario.
func (s EncounterScenario) Name() string { return "encounter" }

// Run implements Scenario.
func (s EncounterScenario) Run(_ context.Context, seed int64, _ int) (*metrics.Result, error) {
	var geom avionics.Scenario
	for _, cand := range avionics.Scenarios() {
		if cand.String() == s.Geometry {
			geom = cand
		}
	}
	if geom == 0 {
		return nil, fmt.Errorf("unknown geometry %q", s.Geometry)
	}
	e, err := avionics.NewEncounter(sim.NewKernel(seed), avionics.DefaultEncounterConfig(geom, s.Collaborative))
	if err != nil {
		return nil, err
	}
	enc, err := e.Run()
	if err != nil {
		return nil, err
	}
	traffic := "voice"
	if s.Collaborative {
		traffic = "ADS-B"
	}
	res := metrics.NewResult(fmt.Sprintf("encounter %s (collaborative=%v)", s.Geometry, s.Collaborative))
	res.Record("geometry", s.Geometry, "traffic", traffic).
		Int("violations ticks", enc.ViolationTicks).
		Val("min lateral m", enc.MinLateral, metrics.F2).
		Val("min vertical m", enc.MinVertical, metrics.F2).
		Bool("maneuvered", enc.Maneuvered).
		Int("LoS at end", int64(enc.LoSAtEnd)).
		Val("LoS3 time", enc.TimeAtLoS3Frac, metrics.Pct)
	return res, nil
}
