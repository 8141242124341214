package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
)

// tailCandidates are the percentiles a tail metric may report, highest
// first.
var tailCandidates = []float64{99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten of n samples above it, or 0 when n is too small for any.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of xs (0 for an
// empty slice). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// latency summarises one sample set as its median and its tail: the
// highest percentile with at least ten samples beyond it (the median when
// there are too few samples for any).
type latency struct {
	N      int
	P50    float64
	TailP  float64
	TailMs float64
}

func summarize(xs []float64) latency {
	l := latency{N: len(xs), P50: median(xs), TailP: tailPercentile(len(xs))}
	if l.TailP == 0 {
		l.TailP = 50
	}
	l.TailMs = percentile(xs, l.TailP)
	return l
}

// runtimeSampler reads the runtime's own counters without stopping the
// world: the live heap after the last GC, heap allocations and GC cycles.
type runtimeSampler struct {
	samples []metrics.Sample
}

func newRuntimeSampler() *runtimeSampler {
	return &runtimeSampler{samples: []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}}
}

// runtimeSnap is one reading of the runtime counters.
type runtimeSnap struct {
	liveBytes uint64
	allocs    uint64
	gcCycles  uint64
	pauseNs   uint64 // only filled by full()
}

func (r *runtimeSampler) read() runtimeSnap {
	metrics.Read(r.samples)
	return runtimeSnap{
		liveBytes: r.samples[0].Value.Uint64(),
		allocs:    r.samples[1].Value.Uint64(),
		gcCycles:  r.samples[2].Value.Uint64(),
	}
}

// full is read plus the cumulative GC pause time, which needs
// runtime.ReadMemStats (a brief stop-the-world): call it only at phase
// boundaries, never between timed calls.
func (r *runtimeSampler) full() runtimeSnap {
	s := r.read()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.pauseNs = ms.PauseTotalNs
	return s
}

// heapPeak tracks the highest live heap seen across samples.
type heapPeak struct {
	rs   *runtimeSampler
	peak uint64
}

func (h *heapPeak) sample() {
	if b := h.rs.read().liveBytes; b > h.peak {
		h.peak = b
	}
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / (1 << 20) }
