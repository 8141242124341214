package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"maps"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {100000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// Whatever the rule picks leaves at least ten samples above it.
	xs := make([]float64, 60)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	l := summarize(xs)
	if l.TailP != 75 || l.TailMs != 45 || l.P50 != 30 {
		t.Fatalf("summarize(1..60) = %+v, want p75 = 45, p50 = 30", l)
	}
	if above := 60 - int(l.TailMs); above < 10 {
		t.Fatalf("only %d samples above the tail", above)
	}
	if l := summarize(xs[:5]); l.TailP != 50 || l.TailMs != 3 {
		t.Fatalf("too few samples must fall back to the median, got %+v", l)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Overlapping children are counted once; the part of a child
		// outside its parent is not the parent's.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120},
		// A grandchild reduces its parent's self time, not the root's.
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 35},
		// A second root with no children is all self time.
		{ID: 6, Name: "root", Start: 200, End: 207},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root": 100 - 40 - 10 + 7,
		"a":    20 + (30 - 10),
		"b":    30,
		"c":    10,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestSinkKeepsWritesAcrossChunks(t *testing.T) {
	var w timedWriter
	var want []byte
	// Writes smaller than, equal to and larger than a chunk, so some
	// straddle chunk boundaries and one spans several chunks.
	for i, n := range []int{10, sinkChunk - 10, 1, sinkChunk, 3*sinkChunk + 7, 0, 5} {
		b := bytes.Repeat([]byte{byte(i + 1)}, n)
		if got, err := w.Write(b); got != n || err != nil {
			t.Fatalf("Write(%d bytes) = %d, %v", n, got, err)
		}
		want = append(want, b...)
	}
	if !bytes.Equal(w.bytes(), want) || w.size != len(want) {
		t.Fatalf("sink holds %d bytes (size %d), want the %d bytes written", len(w.bytes()), w.size, len(want))
	}
	if w.sum() != sha256.Sum256(want) {
		t.Fatal("sink sha256 differs from that of the bytes written")
	}
	for i, c := range w.chunks {
		if cap(c) != sinkChunk {
			t.Fatalf("chunk %d has capacity %d, want %d", i, cap(c), sinkChunk)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.add("x", 0, 1, time.Now(), time.Now()); id != 0 {
		t.Fatalf("nil tracer returned span ID %d", id)
	}
	tr = newTracer()
	a := tr.reserve()
	tr.add("child", a, 1, time.Now(), time.Now())
	tr.record(a, "parent", 0, 1, time.Now(), time.Now())
	if len(tr.spans) != 2 || tr.spans[0].Parent != a || tr.spans[1].ID != a {
		t.Fatalf("reserved parent not linked: %+v", tr.spans)
	}
}

func smokeConfig(t *testing.T, traced bool) runConfig {
	cfg := runConfig{seed: 7, seconds: 1, scratch: t.TempDir()}
	if traced {
		cfg.tr = newTracer()
	}
	return cfg
}

func requireE2E(t *testing.T, o *outcome) {
	t.Helper()
	for name := range units {
		if v, ok := o.e2e[name]; !ok || v <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", name, v)
		}
	}
}

func TestHighwayV2VSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 1200-car worlds")
	}
	ctx := context.Background()
	plain, err := runHighwayV2V(ctx, smokeConfig(t, false))
	if err != nil {
		t.Fatal(err)
	}
	requireE2E(t, plain)
	traced, err := runHighwayV2V(ctx, smokeConfig(t, true))
	if err != nil {
		t.Fatal(err)
	}
	// Tracing only reads the clock: the simulated outputs are identical.
	a, _ := json.Marshal(plain.meta["fingerprint"])
	b, _ := json.Marshal(traced.meta["fingerprint"])
	if plain.meta["fingerprint"] == nil || !bytes.Equal(a, b) {
		t.Fatalf("traced fingerprint %s differs from untraced %s", b, a)
	}
	for _, o := range []*outcome{plain, traced} {
		if o.failed != 0 || o.layer["world.collisions"] != 0 {
			t.Errorf("failed = %d with %v collisions: %q", o.failed, o.layer["world.collisions"], o.failures)
		}
	}
	if traced.layer["sim.barrier_ms"] <= 0 || traced.layer["world.beacons_delivered_per_simsec"] <= 0 {
		t.Errorf("traced run is missing sim/world layer metrics: %v", traced.layer)
	}
}

func TestRadioRecordReplaySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("records and replays a 1200-car world")
	}
	o, err := runRadioRecordReplay(context.Background(), smokeConfig(t, true))
	if err != nil {
		t.Fatal(err)
	}
	requireE2E(t, o)
	if o.failed != 0 {
		t.Fatalf("failed = %d: %q", o.failed, o.failures)
	}
	if got := o.layer["world.replay_windows_verified"]; got != replayTo-replayFrom+1 {
		t.Errorf("replay verified %v windows, want %d", got, replayTo-replayFrom+1)
	}
	for _, name := range []string{"wireless.sent_per_simsec", "trace.bytes_per_window", "trace.parse_ms", "trace.checkpoint_bytes"} {
		if o.layer[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, o.layer[name])
		}
	}
}

func TestDaemonMixedSmoke(t *testing.T) {
	ctx := context.Background()
	o, err := daemonMixed(ctx, smokeConfig(t, false), 0)
	if err != nil {
		t.Fatal(err)
	}
	requireE2E(t, o)
	if o.failed != 0 {
		t.Fatalf("failed = %d: %q", o.failed, o.failures)
	}
	if r := o.layer["service.hit_ratio"]; r < 0.5 || r > 0.9 {
		t.Errorf("hit ratio %v, want about 3/4", r)
	}

	// One deliberately corrupted hit stream must count as failed.
	o, err = daemonMixed(ctx, smokeConfig(t, true), 1)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 1 || !strings.Contains(o.failures[0], "hit stream sha256") {
		t.Fatalf("corrupted hit: failed = %d, failures %q", o.failed, o.failures)
	}
}

func TestRunPrintsResultLast(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run(context.Background(), []string{"-workload", "daemon-mixed", "-seconds", "0.5", "-out", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(units) {
		t.Fatalf("result %+v", res)
	}
	if code := run(context.Background(), []string{"-workload", "nope"}, &out, &errOut); code == 0 {
		t.Fatal("an unknown workload must not exit 0")
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json in step with
// what the benchmark prints.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	if !maps.Equal(e2e, units) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark prints %v", e2e, units)
	}
	o := newOutcome()
	addSelfTimes(o, newTracer())
	fillLayers(o)
	layer := map[string]string{}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	printed := map[string]string{}
	for name := range o.layer {
		printed[name] = layerUnit(name)
	}
	if !maps.Equal(layer, printed) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark prints %v", layer, printed)
	}
}
