// Package harness runs KARYON scenarios replicated across a seed matrix.
//
// A Scenario is a pure function of (seed, scenario config): Run builds
// the replica's world over a kernel of the requested shard width, runs it
// under ctx, and collects a structured metrics.Result. A Backend executes
// N replicas of a scenario — LocalBackend on an in-process worker pool,
// one deterministic kernel per goroutine — and merges the replica results
// in seed order, so the aggregated output is byte-identical regardless of
// the parallelism or the shard width that produced it. The paper's safety
// argument is probabilistic — evidence comes from many replicated runs,
// not single traces — and this package is what makes "many" cheap.
//
// Every front door (cmd/karyon-sim, cmd/karyon-experiments and the
// karyon-d service in internal/service) runs scenarios through a Backend;
// the service's JobSpec is the one mapping from flags or wire specs to a
// scenario. Backends can stream each replica's result in seed order
// as it completes, which is what makes a run's NDJSON result stream
// deterministic enough to be content-addressed and cached.
package harness

import (
	"context"

	"karyon/internal/metrics"
)

// Scenario is one runnable simulation. Run builds the replica's world on
// a kernel seeded with seed and split across shards shard kernels, runs
// it to completion, and collects its results. Implementations must be
// pure functions of (seed, scenario config) — all randomness from the
// seeded kernel, no wall clock, no shared mutable state, and never a
// function of shards — so that replicas parallelize safely and a seed
// matrix fully determines the aggregate. Scenarios without a sharded
// world ignore shards. Cancellation of ctx must surface as an error.
type Scenario interface {
	Name() string
	Run(ctx context.Context, seed int64, shards int) (*metrics.Result, error)
}

// SeedStride spaces replica seeds. Experiments derive sub-kernel seeds by
// small offsets from their base seed (seed+1, seed+2, ...); a wide prime
// stride keeps replica seed ranges disjoint so replicas never reuse each
// other's sub-streams.
const SeedStride = 1_000_003

// Seeds returns the deterministic seed matrix for a base seed: replica i
// runs with base + i*SeedStride.
func Seeds(base int64, replicas int) []int64 {
	if replicas < 1 {
		replicas = 1
	}
	seeds := make([]int64, replicas)
	for i := range seeds {
		seeds[i] = base + int64(i)*SeedStride
	}
	return seeds
}

// Options configures one replicated run.
type Options struct {
	// Seed is the base of the seed matrix.
	Seed int64
	// Replicas is the number of independent runs to aggregate (min 1).
	Replicas int
	// Parallel is the worker-pool width (min 1). It affects wall time only:
	// the aggregated output is identical for every value.
	Parallel int
	// Shards splits each replica's world across this many shard kernels
	// (min 1). Like Parallel it affects wall time only — the output is
	// byte-identical for every value.
	Shards int
}

func (o Options) normalized() Options {
	if o.Replicas < 1 {
		o.Replicas = 1
	}
	if o.Parallel < 1 {
		o.Parallel = 1
	}
	if o.Parallel > o.Replicas {
		o.Parallel = o.Replicas
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	return o
}

// Report is the outcome of one replicated scenario run.
type Report struct {
	Name     string           `json:"name"`
	BaseSeed int64            `json:"base_seed"`
	Seeds    []int64          `json:"seeds"`
	Summary  *metrics.Summary `json:"summary"`
}

// Run executes the scenario once per seed in the matrix, fanning replicas
// across opts.Parallel workers of the in-process backend, and aggregates
// the results in seed order. A failed, panicked, or cancelled replica
// surfaces as an error — never as a silent gap in the aggregate.
func Run(ctx context.Context, s Scenario, opts Options) (*Report, error) {
	return LocalBackend{}.Run(ctx, s, opts, nil)
}
