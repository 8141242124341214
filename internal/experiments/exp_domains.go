package experiments

import (
	"context"
	"karyon/internal/avionics"
	"karyon/internal/metrics"
	"karyon/internal/sim"
	"karyon/internal/world"
)

// e13 — intersection crossing with a failing traffic light and the
// virtual-traffic-light backup (Sec. VI-A2).
func e13() Experiment {
	return Experiment{
		ID:     "E13",
		Title:  "Virtual traffic light takes over a failed intersection",
		Anchor: "Sec. VI-A2",
		Run:    runE13,
	}
}

func runE13(ctx context.Context, cfg Config) *metrics.Result {
	pre := cfg.dur(60*sim.Second, 20*sim.Second)
	post := cfg.dur(5*sim.Minute, 70*sim.Second)
	res := metrics.NewResult("E13 - intersection throughput across light failure")
	run := func(name string, fail bool, backup bool) {
		icfg := world.DefaultIntersectionConfig()
		if fail {
			icfg.LightFailsAt = pre
		}
		icfg.VirtualBackup = backup
		w, err := world.BuildIntersection(cfg.Seed, cfg.shards(), icfg)
		if err != nil {
			res.AddNote("%s: %v", name, err)
			return
		}
		if err := w.Start(); err != nil {
			res.AddNote("%s: %v", name, err)
			return
		}
		if err := w.RunContext(ctx, pre); err != nil {
			res.AddNote("%s: %v", name, err)
			return
		}
		before := w.Crossed[world.RoadNS] + w.Crossed[world.RoadEW]
		if err := w.RunContext(ctx, post); err != nil {
			res.AddNote("%s: %v", name, err)
			return
		}
		after := w.Crossed[world.RoadNS] + w.Crossed[world.RoadEW]
		res.Record("variant", name).
			Int("crossed pre-failure", before).
			Int("crossed post-failure", after-before).
			Val("wait p95 s", w.WaitTimes.Percentile(95), metrics.F2).
			Int("conflicts", w.Conflicts)
		w.Stop()
	}
	run("light healthy", false, true)
	run("light fails, virtual backup", true, true)
	run("light fails, no backup", true, false)
	res.AddNote("expected: virtual backup sustains throughput after failure; no backup stalls (fail-safe); conflicts 0 everywhere")
	return res
}

// e15 — avionic encounters: separation violations for collaborative vs
// non-collaborative traffic across the three scenarios (Sec. VI-B,
// Figs. 6-7).
func e15() Experiment {
	return Experiment{
		ID:     "E15",
		Title:  "Avionics: separation keeping, ADS-B vs voice traffic",
		Anchor: "Sec. VI-B, Figs. 6-7",
		Run:    runE15,
	}
}

func runE15(_ context.Context, cfg Config) *metrics.Result {
	res := metrics.NewResult("E15 - two-aircraft encounters (separation minima 1000 m / 150 m)")
	for _, s := range avionics.Scenarios() {
		for _, collaborative := range []bool{true, false} {
			k := sim.NewKernel(cfg.Seed)
			ecfg := avionics.DefaultEncounterConfig(s, collaborative)
			e, err := avionics.NewEncounter(k, ecfg)
			if err != nil {
				res.AddNote("%v: %v", s, err)
				continue
			}
			enc, err := e.Run()
			if err != nil {
				continue
			}
			traffic := "ADS-B"
			if !collaborative {
				traffic = "voice"
			}
			res.Record("scenario", s.String(), "traffic", traffic).
				Int("violation ticks", enc.ViolationTicks).
				Val("min lateral m", enc.MinLateral, metrics.F2).
				Bool("maneuvered", enc.Maneuvered).
				Val("LoS3 time", enc.TimeAtLoS3Frac, metrics.Pct)
		}
	}
	res.AddNote("expected: zero violations both ways; ADS-B runs cooperative (LoS3, tighter margins), voice runs stay LoS2 with wider berths")
	// Mission profile summary (Fig. 6) as footnote data.
	a := &avionics.Aircraft{Speed: 60, ClimbRate: 8}
	track, elapsed := avionics.FlyMission(a, avionics.RPVMission(), 0.5, 3600)
	alts := avionics.SummarizeTrack(track)
	res.AddNote("RPV mission (Fig. 6): %d legs, %.0f s, sweep altitude %.0f m, final altitude %.0f m",
		len(avionics.RPVMission()), elapsed, alts.Max(), track[len(track)-1].Z)
	return res
}
