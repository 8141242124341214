package world

import (
	"fmt"
	"hash/fnv"
	"testing"

	"karyon/internal/sim"
	"karyon/internal/trace"
)

// interiorConfig is a ring whose arcs stay at least 4×(range + band) long
// up to width 8, so most receivers are interior and the parallel pass of
// deliverBeacons carries most of the V2V traffic. Two lanes (maneuvers)
// and a lossy channel (per-receiver loss streams) as in the invariance
// suites.
func interiorConfig() HighwayConfig {
	cfg := DefaultHighwayConfig()
	cfg.Length = 16800
	cfg.Cars = 252
	cfg.Lanes = 2
	cfg.Loss = 0.1
	return cfg
}

// interiorRun fingerprints one run and reports how many beacons the
// interior pass delivered and the widest band any window used. The
// fingerprint adds to runFingerprint's a digest of every car's full
// checkpoint (state table, accel inbox, loss stream, safety kernel) at
// every barrier: which sender's beacon a receiver lost depends on the
// order it drew its loss stream in, which the aggregate counters do not
// show, and the next window's beacons overwrite the tables. disturb, when
// non-nil, runs at every barrier after the snapshot check.
func interiorRun(t *testing.T, shards int, d sim.Time, disturb func(h *Highway, edge sim.Time)) (fp string, interior int64, band float64) {
	t.Helper()
	h := buildHighway(t, 42, shards, interiorConfig())
	cars := fnv.New64a()
	var e trace.Enc
	var ck carCheckpoint
	var sortBuf []accelEntry
	h.OnWindow(func(edge sim.Time) {
		for _, n := range h.delivered {
			interior += n
		}
		band = max(band, h.band)
		e.Reset()
		for _, c := range h.Cars() {
			saveCar(&ck, c)
			encodeCarCheckpoint(&e, &ck, &sortBuf)
		}
		cars.Write(e.Bytes())
		if disturb != nil {
			disturb(h, edge)
		}
	})
	fp = runFingerprint(t, h, shards, d)
	return fmt.Sprintf("%s cars=%016x", fp, cars.Sum64()), interior, band
}

// The split V2V delivery is byte-identical to width 1 on a ring where the
// interior pass does real work at every width.
func TestInteriorDeliveryMatchesWidthOne(t *testing.T) {
	debugSnapshotSync = true
	defer func() { debugSnapshotSync = false }()
	dur := 10 * sim.Second
	if testing.Short() {
		dur = 3 * sim.Second
	}
	base, _, _ := interiorRun(t, 1, dur, nil)
	for _, shards := range []int{2, 4, 8} {
		got, interior, _ := interiorRun(t, shards, dur, nil)
		if got != base {
			t.Fatalf("shards=%d changed output:\n1 shard: %s\n%d shards: %s", shards, base, shards, got)
		}
		if interior == 0 {
			t.Fatalf("shards=%d: the interior pass delivered nothing", shards)
		}
	}
}

// A car pushed to 1000 m/s at a barrier moves ~100 m in the next window:
// the measured band widens by that much, and the output stays
// byte-identical. The pushed car is the last one before mid-ring, an arc
// boundary at every even width, so it crosses into the next arc and
// beacons to receivers there that a band sized for normal speeds would
// call interior. Its id is lower than theirs, so the serial band pass
// must deliver it to them first. The push runs as an observer hook,
// after the barrier's snapshot check, because a scheduled action must not
// touch kinematics.
func TestInteriorBandWidensOnFastCar(t *testing.T) {
	debugSnapshotSync = true
	defer func() { debugSnapshotSync = false }()
	dur := 6 * sim.Second
	push := func(h *Highway, edge sim.Time) {
		if edge != 2*sim.Second {
			return
		}
		mid := h.cfg.Length / 2
		var last *Car
		for _, c := range h.Cars() {
			if c.Body.X < mid && (last == nil || c.Body.X > last.Body.X) {
				last = c
			}
		}
		last.Body.Speed = 1000
	}
	cfg := interiorConfig()
	base, _, _ := interiorRun(t, 1, dur, push)
	for _, shards := range []int{2, 4} {
		got, interior, band := interiorRun(t, shards, dur, push)
		if got != base {
			t.Fatalf("shards=%d changed output:\n1 shard: %s\n%d shards: %s", shards, base, shards, got)
		}
		if interior == 0 {
			t.Fatalf("shards=%d: the interior pass delivered nothing", shards)
		}
		if band < cfg.V2VRange+90 {
			t.Fatalf("shards=%d: band peaked at %.1f m, want at least %.1f after the push",
				shards, band, cfg.V2VRange+90)
		}
	}
}
