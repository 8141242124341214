package main

import (
	"sync"
	"time"
)

// The benchmark's host is shared: over minutes its effective speed drifts
// by up to a half, so raw wall times of the simulation workloads spread
// across runs by more than any bound a metric may have. Those workloads
// therefore also time a fixed reference loop before and after every timed
// call, and scale that call's wall time by calibRefMs / (the mean of the
// loop's two times around it). The loop is part of the benchmark, so no
// change to the program can move it. On the two-core host the benchmark
// was sized on, six runs of the radio workload spread the median recorded
// second by 0.133 of the median raw, by 0.073 scaled by the loop's median
// over the run, and by 0.041 scaled call by call. Set-up times, a few per
// run, are scaled by the loop's median over the run instead: over six runs
// that spread them by 0.09 of their median, against 0.18 call by call.

// calibRefMs is the reference loop's time on that host when it was
// quiet; it only sets the scale of the normalized metrics.
const calibRefMs = 6.0

// calibrator collects the reference loop's times over a run.
type calibrator struct {
	table []uint64 // the loop's read-only working set (4 MiB), built on first use
	ms    []float64
}

// sample runs the reference loop once: random reads, map updates and
// arithmetic on two goroutines, like the two shards of a simulated world.
// It returns the loop's time in ms.
func (c *calibrator) sample() float64 {
	if c.table == nil {
		c.table = make([]uint64, 1<<19)
		for i := range c.table {
			c.table[i] = uint64(i) * 0x9E3779B97F4A7C15
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, 2)
	for g := range sums {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := make(map[uint64]uint64, 4096)
			x := uint64(g) * 7919
			for i := 0; i < 60000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				v := c.table[x>>45&(1<<19-1)]
				m[v&4095] += v
				sums[g] += m[(v>>7)&4095]
			}
		}(g)
	}
	wg.Wait()
	d := ms(time.Since(start))
	c.ms = append(c.ms, d)
	return d
}

// factor converts a wall time measured between two loop samples, taken
// before and after it, to reference-host time.
func factor(before, after float64) float64 {
	return 2 * calibRefMs / (before + after)
}

// scale is the factor that converts a wall time to reference-host time
// by the loop's median time over the run so far.
func (c *calibrator) scale() float64 {
	return calibRefMs / median(c.ms)
}

// samples are wall times as measured and as normalized by the reference
// loop samples taken around each.
type samples struct{ raw, norm []float64 }

func (s *samples) add(d, factor float64) {
	s.raw = append(s.raw, d)
	s.norm = append(s.norm, d*factor)
}

// setTimes sets the end-to-end time metrics from normalized samples and
// keeps the medians of the raw samples in the meta line. The latency's
// tail and sample count go to the meta line too: on a shared two-core
// host the tail of every workload's latency spread across runs by more
// than the largest bound a metric may have.
func setTimes(o *outcome, cost, latency, setup *samples, latencyOf string) {
	l := summarize(latency.norm)
	o.e2e["cost_ms_per_simsec"] = median(cost.norm)
	o.e2e["latency_p50_ms"] = l.P50
	o.e2e["setup_s"] = median(setup.norm)
	o.meta["raw_ms_per_simsec"] = median(cost.raw)
	o.meta["raw_latency_p50_ms"] = median(latency.raw)
	o.meta["raw_setup_s"] = median(setup.raw)
	o.meta["latency_of"] = latencyOf
	o.meta["latency_samples"] = l.N
	o.meta["latency_tail_percentile"] = l.TailP
	o.meta["latency_tail_ms"] = l.TailMs
	o.meta["setup_samples"] = len(setup.raw)
}

// report records the loop's median time over the run.
func (c *calibrator) report(o *outcome) {
	o.meta["calib_ms"] = median(c.ms)
	o.meta["calib_samples"] = len(c.ms)
	o.layer["bench.calib_ms"] = median(c.ms)
}
