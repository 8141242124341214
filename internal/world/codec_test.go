package world

import (
	"bytes"
	"reflect"
	"testing"

	"karyon/internal/core"
	"karyon/internal/sensor"
	"karyon/internal/sim"
	"karyon/internal/trace"
)

// stateCodec is a checkpoint state with its trace codec.
type stateCodec interface {
	EncodeState(e *trace.Enc)
	DecodeState(d *trace.Dec)
}

// gateCodec gives core.GateState, whose decoder is a function, the
// stateCodec shape.
type gateCodec struct{ core.GateState }

func (g *gateCodec) DecodeState(d *trace.Dec) { g.GateState = core.DecodeGateState(d) }

// roundTrip checks decode(encode(s)) == s for one state: the decoder
// consumes exactly the encoded bytes, the decoded value deep-equals s, and
// re-encoding it reproduces the bytes. It reports whether s is non-zero.
func roundTrip[T any, P interface {
	*T
	stateCodec
}](t *testing.T, name string, s P) bool {
	t.Helper()
	var e trace.Enc
	s.EncodeState(&e)
	want := bytes.Clone(e.Bytes())
	var got T
	d := trace.NewDec(want)
	P(&got).DecodeState(d)
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("%s: decode: err %v, %d of %d bytes left", name, d.Err(), d.Remaining(), len(want))
	}
	if !reflect.DeepEqual(&got, (*T)(s)) {
		t.Fatalf("%s: decode(encode(s)) != s:\n got %+v\nwant %+v", name, got, *s)
	}
	e.Reset()
	P(&got).EncodeState(&e)
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("%s: re-encoding the decoded state changed the bytes", name)
	}
	return !reflect.ValueOf(got).IsZero()
}

// TestStateCodecsRoundTrip is the property test for every per-subsystem
// checkpoint codec (coord, core, gear, sensor, vehicle, wireless): it
// round-trips each car's and the world's state at every barrier of a
// short run. The run has two lanes and a slow car (completed maneuvers
// and reservations), the slot-level radio with a jam burst, and a stuck
// transducer, so every codec sees non-zero state.
func TestStateCodecsRoundTrip(t *testing.T) {
	cfg := DefaultHighwayConfig()
	cfg.Cars = 10
	cfg.Length = 1500
	cfg.Lanes = 2
	cfg.Loss = 0.05
	cfg.Medium = true
	cfg.CarrierSense = true
	cfg.Channels = 2
	h := buildHighway(t, 5, 2, cfg)
	h.Cars()[0].SetCruiseSpeed(10)
	h.Schedule(sim.Second, func() {
		h.Cars()[3].SensorInputs()[0].Physical().Inject(sensor.Fault{
			Mode: sensor.FaultStuckAt, From: sim.Second, To: 5 * sim.Second,
		})
	})
	h.Schedule(3*sim.Second, func() { h.JamV2V(400 * sim.Millisecond) })

	seen := map[string]bool{}
	check := func(name string, nonZero bool) { seen[name] = seen[name] || nonZero }
	h.OnWindow(func(sim.Time) {
		for _, c := range h.Cars() {
			check("coord/state-table", roundTrip(t, "coord/state-table", c.table.SaveState(nil)))
			check("core/manager", roundTrip(t, "core/manager", c.manager.SaveState(nil)))
			check("core/gate", roundTrip(t, "core/gate", &gateCodec{c.gate.SaveState()}))
			est := *c.est
			check("gear/lead-estimator", roundTrip(t, "gear/lead-estimator", &est))
			for _, in := range c.inputs {
				phys := in.Physical().SaveState()
				check("sensor/physical", roundTrip(t, "sensor/physical", &phys))
				check("sensor/fault-management", roundTrip(t, "sensor/fault-management", in.FaultManagement().SaveState(nil)))
			}
			check("sensor/reliable", roundTrip(t, "sensor/reliable", c.dist.SaveState(nil)))
			m := c.maneuver
			check("vehicle/maneuver", roundTrip(t, "vehicle/maneuver", &m))
		}
		check("coord/reservations", roundTrip(t, "coord/reservations", h.res))
		check("wireless/medium", roundTrip(t, "wireless/medium", h.medium.SaveState(nil)))
	})
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.Run(15 * sim.Second); err != nil {
		t.Fatal(err)
	}
	var completed int64
	for _, c := range h.Cars() {
		completed += c.maneuver.Completions
	}
	if completed == 0 {
		t.Error("no lane change completed: the maneuver counters stayed zero")
	}
	for _, name := range []string{
		"coord/state-table", "coord/reservations", "core/manager", "core/gate",
		"gear/lead-estimator", "sensor/physical", "sensor/fault-management",
		"sensor/reliable", "vehicle/maneuver", "wireless/medium",
	} {
		if !seen[name] {
			t.Errorf("%s: never saw non-zero state", name)
		}
	}
}
