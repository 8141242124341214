package harness

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"karyon/internal/metrics"
)

// jitterScenario finishes replicas in deliberately scrambled wall-clock
// order (later seeds sleep less) so the in-order release logic is actually
// exercised, not just the already-ordered fast path.
type jitterScenario struct {
	replicas int
	failSeed int64
}

func (jitterScenario) Name() string { return "jitter" }

func (s jitterScenario) Run(_ context.Context, seed int64, _ int) (*metrics.Result, error) {
	if s.failSeed != 0 && seed == s.failSeed {
		return nil, errors.New("boom")
	}
	// Later replicas (larger seeds) sleep less, so with a parallel pool
	// they complete before earlier ones.
	rank := int((seed - 1) / SeedStride)
	time.Sleep(time.Duration(s.replicas-rank) * 2 * time.Millisecond)
	res := metrics.NewResult("jitter")
	res.Record("seed", fmt.Sprint(seed)).Int("rank", int64(rank))
	return res, nil
}

func TestLocalBackendEmitsInSeedOrder(t *testing.T) {
	const replicas = 8
	var mu sync.Mutex
	var gotIdx []int
	var gotSeeds []int64
	rep, err := LocalBackend{}.Run(context.Background(), jitterScenario{replicas: replicas},
		Options{Seed: 1, Replicas: replicas, Parallel: 4},
		func(i int, seed int64, res *metrics.Result) {
			mu.Lock()
			defer mu.Unlock()
			gotIdx = append(gotIdx, i)
			gotSeeds = append(gotSeeds, seed)
			if res == nil || len(res.Records) != 1 {
				t.Errorf("replica %d: bad result %+v", i, res)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotIdx) != replicas {
		t.Fatalf("emitted %d replicas, want %d", len(gotIdx), replicas)
	}
	want := Seeds(1, replicas)
	for i := range gotIdx {
		if gotIdx[i] != i {
			t.Fatalf("emit order %v: index %d out of order", gotIdx, gotIdx[i])
		}
		if gotSeeds[i] != want[i] {
			t.Fatalf("emit seed[%d] = %d, want %d", i, gotSeeds[i], want[i])
		}
	}
	if rep.Summary == nil || rep.Summary.Replicas != replicas {
		t.Fatalf("bad report summary: %+v", rep.Summary)
	}
}

func TestLocalBackendStreamMatchesRun(t *testing.T) {
	// The streamed replica results must be exactly the results the plain
	// aggregate is built from: aggregating the emitted stream reproduces
	// the report's summary byte-for-byte.
	sc := HighwayScenario{Duration: 5 * time.Second, Cars: 5, Mode: "adaptive"}
	opts := Options{Seed: 3, Replicas: 3, Parallel: 3}
	var streamed []*metrics.Result
	var mu sync.Mutex
	rep, err := LocalBackend{}.Run(context.Background(), sc, opts,
		func(i int, seed int64, res *metrics.Result) {
			mu.Lock()
			streamed = append(streamed, res)
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(context.Background(), sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := metrics.Aggregate(streamed).Table().String(), plain.Summary.Table().String(); got != want {
		t.Fatalf("aggregate of streamed results differs from plain run:\n%s\nvs\n%s", got, want)
	}
	if got, want := rep.Summary.Table().String(), plain.Summary.Table().String(); got != want {
		t.Fatalf("streaming run's report differs from plain run:\n%s\nvs\n%s", got, want)
	}
}

func TestLocalBackendStreamStopsOnFailure(t *testing.T) {
	const replicas = 6
	failSeed := Seeds(1, replicas)[3]
	var mu sync.Mutex
	var got []int
	_, err := LocalBackend{}.Run(context.Background(),
		jitterScenario{replicas: replicas, failSeed: failSeed},
		Options{Seed: 1, Replicas: replicas, Parallel: 3},
		func(i int, seed int64, res *metrics.Result) {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
		})
	if err == nil {
		t.Fatal("failing replica did not error the run")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, i := range got {
		if i >= 3 {
			t.Fatalf("replica %d emitted at or past the failed replica 3 (emitted %v)", i, got)
		}
	}
}
