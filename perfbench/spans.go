package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// (one simulated second, one replay, one daemon job) share Run; Parent is
// the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs (and the untraced half of a traced run's
// overhead comparison) pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
	next  int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// reserve allocates a span ID ahead of the span's end, so spans that
// start inside it can name it as their parent. It returns 0, which
// records nothing, on a nil tracer.
func (t *tracer) reserve() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a span under an ID from reserve (ID 0 is dropped).
func (t *tracer) record(id int, name string, parent, run int, start, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Run: run, Name: name,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base)),
	})
}

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent, run int, start, end time.Time) int {
	id := t.reserve()
	t.record(id, name, parent, run, start, end)
	return id
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns, per span name, the summed self time of its spans: a
// span's duration minus the part of its interval that its children cover
// (overlapping children are counted once; child time outside the parent
// is ignored).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		covered := int64(0)
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		cur := s.Start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(k[0], cur), min(k[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}
