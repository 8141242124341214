package experiments

import (
	"context"
	"karyon/internal/coord"
	"karyon/internal/metrics"
	"karyon/internal/sim"
	"karyon/internal/wireless"
)

// e16 — cohort (platoon) formation, profile dissemination and head
// failover under loss (Sec. V-C [24]; Sec. VI-A3's "platoons of cars").
func e16() Experiment {
	return Experiment{
		ID:     "E16",
		Title:  "Cohorts: platoon formation and head failover vs loss",
		Anchor: "Sec. V-C ([24] Le Lann), Sec. VI-A3",
		Run:    runE16,
	}
}

func runE16(_ context.Context, cfg Config) *metrics.Result {
	res := metrics.NewResult("E16 - 8-vehicle cohort: formation, profile adoption, head-crash failover")
	losses := []float64{0, 0.2, 0.4}
	if cfg.Short {
		losses = []float64{0, 0.4}
	}
	formWindow := cfg.dur(30*sim.Second, 15*sim.Second)
	failWindow := cfg.dur(20*sim.Second, 12*sim.Second)
	for _, loss := range losses {
		k := sim.NewKernel(cfg.Seed)
		mcfg := wireless.DefaultConfig()
		mcfg.LossProb = loss
		medium := wireless.NewMedium(k, mcfg)
		n := 8
		var members []*coord.CohortMember
		ok := true
		for i := 0; i < n; i++ {
			radio, err := medium.Attach(wireless.NodeID(i), wireless.Position{X: float64(i) * 10})
			if err != nil {
				ok = false
				break
			}
			m, err := coord.NewCohortMember(k, radio, coord.DefaultCohortConfig("p"))
			if err != nil {
				ok = false
				break
			}
			radio.OnReceive(m.OnFrame)
			members = append(members, m)
		}
		if !ok {
			res.AddNote("rig construction failed at loss %v", loss)
			continue
		}
		if err := members[0].Found(25); err != nil {
			continue
		}
		for _, m := range members[1:] {
			if err := m.Join(); err != nil {
				ok = false
			}
		}
		if !ok {
			continue
		}
		// Formation time: first instant every member is joined.
		formAt := sim.Time(-1)
		for k.Now() < formWindow {
			k.RunFor(100 * sim.Millisecond)
			all := true
			for _, m := range members {
				if !m.Joined() {
					all = false
					break
				}
			}
			if all {
				formAt = k.Now()
				break
			}
		}
		joined := 0
		for _, m := range members {
			if m.Joined() {
				joined++
			}
		}
		// Profile change adoption.
		_ = members[0].SetTargetSpeed(30)
		k.RunFor(2 * sim.Second)
		adopted := 0
		for _, m := range members {
			if v, vok := m.TargetSpeed(); vok && v == 30 {
				adopted++
			}
		}
		// Head crash and failover.
		members[0].Stop()
		medium.Detach(0)
		crashAt := k.Now()
		failoverAt := sim.Time(-1)
		for k.Now() < crashAt+failWindow {
			k.RunFor(100 * sim.Millisecond)
			for _, m := range members[1:] {
				if m.Head() {
					failoverAt = k.Now()
				}
			}
			if failoverAt >= 0 {
				break
			}
		}
		k.RunFor(2 * sim.Second)
		heads := 0
		for _, m := range members[1:] {
			if m.Head() {
				heads++
			}
		}
		rec := res.Record("loss", metrics.FmtPct(loss)).
			Int("joined", int64(joined))
		if formAt >= 0 {
			rec.Val("form time s", formAt.Seconds(), metrics.F2)
		} else {
			rec.MissingVal("form time s", metrics.F2)
		}
		rec.Int("profile adopted", int64(adopted)).
			Int("heads after crash", int64(heads))
		if failoverAt >= 0 {
			rec.Val("failover time s", (failoverAt - crashAt).Seconds(), metrics.F2)
		} else {
			rec.MissingVal("failover time s", metrics.F2)
		}
	}
	res.AddNote("expected: full formation and adoption, exactly one head after the crash, failover within ~headTimeout + a few roster periods even under loss")
	return res
}
