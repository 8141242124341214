package main

import "strings"

// layerMetrics lists every per-layer metric a traced run prints, with its
// unit. Each workload fills the ones its layers cover; the rest read 0
// (for example, no radio frames are sent on highway-v2v). README.md maps
// each one to the end-to-end metric and workload it should move.
var layerMetrics = []struct{ name, unit string }{
	// sim: from the benchmark's own OnShardWindow/OnWindow hooks.
	{"sim.shard_busy_ms", "ms"},
	{"sim.straggler_ms", "ms"},
	{"sim.barrier_ms", "ms"},
	{"sim.barrier_frac", "1"},
	{"sim.events_per_window", "count"},
	{"sim.clamped", "count"},
	// world: abstract V2V fan-out and handoff work.
	{"world.beacons_delivered_per_simsec", "count"},
	{"world.beacon_delivery_ratio", "1"},
	{"world.crossers_per_simsec", "count"},
	{"world.collisions", "count"},
	// wireless: the slot-level medium's accounting.
	{"wireless.sent_per_simsec", "count"},
	{"wireless.delivery_ratio", "1"},
	{"wireless.collisions_per_simsec", "count"},
	{"wireless.deferred_per_simsec", "count"},
	{"wireless.retries_per_simsec", "count"},
	{"wireless.in_range_frac", "1"},
	// trace: recording and parsing.
	{"trace.bytes_per_window", "B"},
	{"trace.checkpoint_bytes", "B"},
	{"trace.sink_write_ms", "ms"},
	{"trace.record_overhead_frac", "1"},
	{"trace.parse_ms", "ms"},
	{"trace.mb_per_simsec", "MB"},
	// world replay.
	{"world.replay_ms", "ms"},
	{"world.replay_windows_verified", "count"},
	{"world.replay_ms_per_window", "ms"},
	// service: karyon-d behind its HTTP handler.
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.submit_hit_ms", "ms"},
	{"service.submit_miss_ms", "ms"},
	{"service.ttfb_hit_ms", "ms"},
	{"service.ttfb_miss_ms", "ms"},
	{"service.hit_p50_ms", "ms"},
	{"service.hit_tail_ms", "ms"},
	{"service.miss_p50_ms", "ms"},
	{"service.miss_tail_ms", "ms"},
	{"service.ttfb_p50_ms", "ms"},
	{"service.jobs_per_s", "1/s"},
	{"service.hit_ratio", "1"},
	{"service.deduped", "count"},
	{"service.result_bytes", "B"},
	{"service.cache_bytes", "B"},
	{"service.errors", "count"},
	// runtime: over the measured phase.
	{"runtime.allocs_per_simsec", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	// benchmark: failures and the cost of tracing itself.
	{"bench.failed_frac", "1"},
	{"bench.trace_overhead_frac", "1"},
	{"bench.calib_ms", "ms"},
}

// spanNames are the spans the workloads record; each gets a
// self_frac.<name> metric (its self time over the root spans' time).
var spanNames = []string{
	"run.second", "window", "sim.shard", "sim.barrier", "trace.sink_write",
	"world.replay", "trace.parse", "daemon.job", "client.submit", "client.stream",
	"service.queue", "service.run",
}

func layerUnit(name string) string {
	if strings.HasPrefix(name, "self_frac.") {
		return "1"
	}
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// fillLayers gives every per-layer metric a value, 0 where the workload
// does not exercise the layer.
func fillLayers(o *outcome) {
	for _, m := range layerMetrics {
		if _, ok := o.layer[m.name]; !ok {
			o.layer[m.name] = 0
		}
	}
}
