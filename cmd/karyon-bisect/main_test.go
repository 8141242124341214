package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"karyon/internal/harness"
)

func record(t *testing.T, path string, seed int64, shards int, perturb uint64) {
	t.Helper()
	sc := harness.HighwayScenario{
		Duration: 8 * time.Second, Cars: 10, Mode: "adaptive",
		Record: harness.Recording{Path: path, CheckpointEvery: 20, PerturbWindow: perturb},
	}
	if _, err := sc.Run(context.Background(), seed, shards); err != nil {
		t.Fatal(err)
	}
}

func TestBisectIdenticalTraces(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.ktr"), filepath.Join(dir, "b.ktr")
	record(t, a, 7, 2, 0)
	record(t, b, 7, 2, 0)
	var sb strings.Builder
	code, err := run([]string{a, b}, &sb)
	if err != nil || code != 0 {
		t.Fatalf("code %d, err %v\n%s", code, err, sb.String())
	}
	if !strings.Contains(sb.String(), "traces identical") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

// The acceptance check: against a perturbed twin (car 0 forced to brake
// at window 40's barrier), bisect names exactly window 41 — the first
// window whose control steps read the brake flag.
func TestBisectFindsExactDivergentWindow(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.ktr"), filepath.Join(dir, "b.ktr")
	const perturbAt = 40
	record(t, a, 7, 2, 0)
	record(t, b, 7, 2, perturbAt)
	var sb strings.Builder
	code, err := run([]string{a, b}, &sb)
	if err != nil || code != 1 {
		t.Fatalf("code %d, err %v\n%s", code, err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "first divergent window: 41") {
		t.Fatalf("output:\n%s", out)
	}
	if !strings.Contains(out, "last agreeing window:   40") {
		t.Fatalf("output:\n%s", out)
	}
	if !strings.Contains(out, "digest") {
		t.Fatalf("missing decision dump:\n%s", out)
	}
}

// Cross-width traces of the same run agree (Crossers is telemetry).
func TestBisectCrossWidthIdentical(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.ktr"), filepath.Join(dir, "b.ktr")
	record(t, a, 7, 1, 0)
	record(t, b, 7, 4, 0)
	var sb strings.Builder
	code, err := run([]string{a, b}, &sb)
	if err != nil || code != 0 {
		t.Fatalf("code %d, err %v\n%s", code, err, sb.String())
	}
	if !strings.Contains(sb.String(), "shard widths differ") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestBisectErrors(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.ktr")
	record(t, a, 7, 1, 0)
	for _, args := range [][]string{
		{},
		{a},
		{a, filepath.Join(dir, "missing.ktr")},
	} {
		var sb strings.Builder
		if code, _ := run(args, &sb); code != 2 {
			t.Fatalf("args %v: code %d", args, code)
		}
	}
	// Different seeds are different runs, not a bisectable pair.
	c := filepath.Join(dir, "c.ktr")
	record(t, c, 8, 1, 0)
	var sb strings.Builder
	if code, _ := run([]string{a, c}, &sb); code != 2 {
		t.Fatalf("different-seed pair: code %d", code)
	}
}
