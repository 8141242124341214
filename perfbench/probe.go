package main

import (
	"crypto/sha256"
	"time"

	"karyon/internal/sim"
)

// windowProbe times every window of a sharded kernel from outside the
// world. Its hooks are registered after the world's own, so the shard
// hook fires once that shard's events and the world's per-shard phase are
// done, and the window hook fires once the whole barrier (mailbox drain
// plus every world hook) is done. The hooks only read the clock and the
// kernel's counters, so they cannot change the simulation.
type windowProbe struct {
	sk   *sim.ShardedKernel
	done []time.Time // per shard; written on that shard's goroutine
	open time.Time   // start of the current window

	windowsMs []float64 // wall time of each window, open to barrier end

	// Sums over all probed windows.
	windows                       int
	busy, straggler, barrier, all time.Duration
	events                        uint64
	lastExec                      uint64

	// Span context: the request the current windows belong to, and the
	// ID reserved for the current window's barrier span (the recorder's
	// sink writes happen inside it).
	tr        *tracer
	parent    int
	run       int
	barrierID int
}

// attach registers the probe's hooks on a kernel after the world's own.
// Sums keep accumulating across the kernels a probe is attached to in
// turn; only the latest kernel may run.
func (p *windowProbe) attach(sk *sim.ShardedKernel) {
	p.sk = sk
	p.done = make([]time.Time, sk.Shards())
	sk.OnShardWindow(func(shard int, _ sim.Time) { p.done[shard] = time.Now() })
	sk.OnWindow(p.onWindow)
}

// begin marks the start of a request: the next window opens now.
func (p *windowProbe) begin(parent, run int) {
	p.parent, p.run = parent, run
	p.lastExec = p.sk.Executed()
	p.barrierID = p.tr.reserve()
	p.open = time.Now()
}

func (p *windowProbe) onWindow(sim.Time) {
	end := time.Now()
	first, last := p.done[0], p.done[0]
	for _, d := range p.done {
		if d.Before(first) {
			first = d
		}
		if d.After(last) {
			last = d
		}
		p.busy += d.Sub(p.open)
	}
	win := end.Sub(p.open)
	p.windowsMs = append(p.windowsMs, ms(win))
	p.windows++
	p.all += win
	p.straggler += last.Sub(first)
	p.barrier += end.Sub(last)
	exec := p.sk.Executed()
	p.events += exec - p.lastExec
	p.lastExec = exec

	if p.tr != nil {
		w := p.tr.add("window", p.parent, p.run, p.open, end)
		for _, d := range p.done {
			p.tr.add("sim.shard", w, p.run, p.open, d)
		}
		p.tr.record(p.barrierID, "sim.barrier", w, p.run, last, end)
		p.barrierID = p.tr.reserve()
	}
	p.open = end
}

// sinkChunk is the size of the blocks the recorder's sink holds its bytes in.
const sinkChunk = 1 << 20

// timedWriter is the recorder's sink: an in-memory trace whose Write calls
// are timed, and traced as children of the barrier that made them. Like a
// file, it never copies what it already holds: it fills fixed-size chunks
// instead of growing one slice. A growing slice keeps its old and new
// arrays live during each copy, and whether a GC caught such a copy moved
// the recording's heap peak by 8 MB from run to run.
type timedWriter struct {
	chunks [][]byte
	size   int
	writes time.Duration
	probe  *windowProbe // nil before the probe is attached
}

func (w *timedWriter) Write(b []byte) (int, error) {
	start := time.Now()
	n := len(b)
	for len(b) > 0 {
		if len(w.chunks) == 0 || len(w.chunks[len(w.chunks)-1]) == sinkChunk {
			w.chunks = append(w.chunks, make([]byte, 0, sinkChunk))
		}
		c := &w.chunks[len(w.chunks)-1]
		k := min(len(b), sinkChunk-len(*c))
		*c = append(*c, b[:k]...)
		b = b[k:]
	}
	w.size += n
	end := time.Now()
	w.writes += end.Sub(start)
	if p := w.probe; p != nil && p.tr != nil {
		p.tr.add("trace.sink_write", p.barrierID, p.run, start, end)
	}
	return n, nil
}

// bytes returns the trace in one slice.
func (w *timedWriter) bytes() []byte {
	out := make([]byte, 0, w.size)
	for _, c := range w.chunks {
		out = append(out, c...)
	}
	return out
}

// sum returns the trace's sha256.
func (w *timedWriter) sum() [sha256.Size]byte {
	h := sha256.New()
	for _, c := range w.chunks {
		h.Write(c)
	}
	var s [sha256.Size]byte
	h.Sum(s[:0])
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
