package experiments

import (
	"context"
	"math"

	"karyon/internal/metrics"
	"karyon/internal/sensor"
	"karyon/internal/sim"
)

// e3 — validity estimation per fault mode (Sec. IV, Figs. 2-3): for each
// of the paper's five fault-mode dimensions, inject the fault into an
// abstract sensor and report the validity before/during the episode plus
// detection coverage and false-positive rate on a healthy sensor.
func e3() Experiment {
	return Experiment{
		ID:     "E3",
		Title:  "Abstract sensor: validity per fault mode",
		Anchor: "Sec. IV-A, Fig. 2/3 (MOSAIC)",
		Run:    runE3,
	}
}

func newE3Sensor(k *sim.Kernel, truth sensor.Truth, sigma float64, period sim.Time) *sensor.Abstract {
	phys := sensor.NewPhysical(k, "dist", truth, sigma)
	fm := sensor.NewFaultManagement(16,
		sensor.RangeDetector{Min: 0, Max: 500},
		sensor.FreshnessDetector{MaxAge: 3 * period},
		sensor.StuckDetector{MinRepeats: 4},
		sensor.NoiseDetector{Sigma: sigma, Tolerance: 4, MinWindow: 8},
		sensor.RateDetector{MaxRate: 50},
	)
	return sensor.NewAbstract(k, phys, fm)
}

func runE3(_ context.Context, cfg Config) *metrics.Result {
	episode := cfg.dur(10*sim.Second, 3*sim.Second)
	res := metrics.NewResult("E3 - validity during injected fault episodes (100 Hz sampling)")
	const (
		sigma  = 0.3
		period = 10 * sim.Millisecond
	)
	truth := func(t sim.Time) float64 { return 50 + 20*math.Sin(t.Seconds()/5) }
	for _, mode := range sensor.AllFaultModes() {
		k := sim.NewKernel(cfg.Seed)
		a := newE3Sensor(k, truth, sigma, period)
		var healthy, faulty metrics.Histogram
		var falsePos metrics.Ratio
		sampleFor := func(h *metrics.Histogram, d sim.Time, fp *metrics.Ratio) {
			t, err := k.Every(period, func() {
				r := a.Read()
				h.Observe(r.Validity)
				if fp != nil {
					fp.Observe(r.Validity < 0.5)
				}
			})
			if err != nil {
				return
			}
			k.RunFor(d)
			t.Stop()
		}
		sampleFor(&healthy, episode, &falsePos)
		a.Physical().Inject(sensor.Fault{
			Mode:      mode,
			From:      k.Now(),
			To:        k.Now() + episode,
			Magnitude: 30,
			Delay:     500 * sim.Millisecond,
			Prob:      0.3,
		})
		sampleFor(&faulty, episode, nil)
		detected := faulty.Percentile(10) < 0.5 || faulty.Mean() < healthy.Mean()*0.7
		res.Record("fault mode", mode.String()).
			Val("validity healthy", healthy.Mean(), metrics.F2).
			Val("validity faulty", faulty.Mean(), metrics.F2).
			Bool("detected", detected).
			Val("false pos healthy", falsePos.Value(), metrics.Pct)
	}
	res.AddNote("expected: healthy validity ~1, false positives ~0; delay/sporadic/stochastic/stuck detected locally")
	res.AddNote("permanent-offset is NOT locally detectable by construction — a constant bias looks plausible to every single-sensor detector; exposing it requires redundancy, which is exactly experiment E4's reliable sensor (paper Sec. IV-B)")
	return res
}

// e4 — abstract reliable sensor: fusion error with one faulty input
// (Sec. IV-B). Compares a single sensor against Marzullo-fused triple
// redundancy and validity-weighted fusion while one of the three inputs
// carries each fault mode.
func e4() Experiment {
	return Experiment{
		ID:     "E4",
		Title:  "Reliable sensor: fusion masks a faulty input",
		Anchor: "Sec. IV-B (abstract reliable sensor)",
		Run:    runE4,
	}
}

func runE4(_ context.Context, cfg Config) *metrics.Result {
	res := metrics.NewResult("E4 - RMS error vs truth, one of three sensors faulted (offset 40 m)")
	const sigma = 0.3
	truthVal := 100.0
	truth := func(sim.Time) float64 { return truthVal }
	reads := cfg.n(500, 120)
	for _, mode := range sensor.AllFaultModes() {
		k := sim.NewKernel(cfg.Seed)
		mk := func() *sensor.Abstract {
			return newE3Sensor(k, truth, sigma, 10*sim.Millisecond)
		}
		s1, s2, s3 := mk(), mk(), mk()
		rel := sensor.NewReliable(k, []*sensor.Abstract{s1, s2, s3}, 1.5, 1, 0.2)
		// Warm up.
		for i := 0; i < 20; i++ {
			rel.Read()
			s1.Read()
		}
		s2.Physical().Inject(sensor.Fault{
			Mode: mode, Magnitude: 40, Delay: 2 * sim.Second, Prob: 0.3,
		})
		var errSingle, errMarz, errWeighted, relVal metrics.Histogram
		for i := 0; i < reads; i++ {
			k.RunFor(10 * sim.Millisecond)
			single := s2.Read()
			errSingle.Observe(sq(single.Value - truthVal))
			fused := rel.Read()
			errMarz.Observe(sq(fused.Value - truthVal))
			relVal.Observe(fused.Validity)
			readings := []sensor.Reading{s1.Read(), s2.Read(), s3.Read()}
			if w, err := sensor.WeightedFusion(k.Now(), readings, 0.3); err == nil {
				errWeighted.Observe(sq(w.Value - truthVal))
			}
		}
		res.Record("fault mode", mode.String()).
			Val("single faulty", math.Sqrt(errSingle.Mean()), metrics.F2).
			Val("marzullo f=1", math.Sqrt(errMarz.Mean()), metrics.F2).
			Val("weighted", math.Sqrt(errWeighted.Mean()), metrics.F2).
			Val("reliable validity", relVal.Mean(), metrics.F2)
	}
	res.AddNote("expected: fusion RMS error ~ sensor noise regardless of the injected mode; single faulty sensor error >> noise")
	return res
}

func sq(v float64) float64 { return v * v }
