// Command perfbench is KARYON's end-to-end benchmark. It runs one named
// workload in-process for a wall-time budget, checks the outputs, and
// prints one JSON result line:
//
//	perfbench -workload highway-v2v -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics of a traced run, whose spans are
// written under -out. See README.md for the workloads and how to read a
// traced run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// shards is the width of every simulated world: lockstep windows over
// two shard kernels, one per core of the two-core host the benchmark was
// sized on.
const shards = 2

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	tr      *tracer // nil unless traced
	scratch string  // private directory for files the workload writes
}

// outcome is a workload's measured result: operations attempted and
// failed (any failed output check counts), end-to-end metrics, per-layer
// metrics, and run metadata.
type outcome struct {
	attempted, failed int
	failures          []string
	e2e               map[string]float64
	layer             map[string]float64
	meta              map[string]any
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, meta: map[string]any{}}
}

// fail counts one failed operation and says why on stderr.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	msg := fmt.Sprintf(format, args...)
	o.failures = append(o.failures, msg)
	fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", msg)
}

// check counts one attempted output check, failing it when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

type workload func(ctx context.Context, cfg runConfig) (*outcome, error)

var workloads = map[string]workload{
	"highway-v2v":         runHighwayV2V,
	"radio-record-replay": runRadioRecordReplay,
	"daemon-mixed":        runDaemonMixed,
}

// units of the end-to-end metrics, which every workload prints.
var units = map[string]string{
	"cost_ms_per_simsec": "ms",
	"latency_p50_ms":     "ms",
	"setup_s":            "s",
	"heap_peak_mb":       "MB",
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: highway-v2v | radio-record-replay | daemon-mixed")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "wall-time budget of the measured phase")
	traced := fs.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files and scratch state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	cfg := runConfig{seed: *seed, seconds: *seconds, scratch: scratch}
	if *traced == 1 {
		cfg.tr = newTracer()
	}
	o, err := w(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	o.meta["workload"] = *name
	o.meta["seed"] = *seed
	o.meta["seconds"] = *seconds
	o.meta["shards"] = shards
	o.meta["nproc"] = runtime.NumCPU()
	o.meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	o.meta["go"] = runtime.Version()
	o.meta["traced"] = *traced == 1

	metrics := o.e2e
	if cfg.tr != nil {
		metrics = o.layer
		if o.attempted > 0 {
			o.layer["bench.failed_frac"] = float64(o.failed) / float64(o.attempted)
		}
		addSelfTimes(o, cfg.tr)
		fillLayers(o)
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := cfg.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		o.meta["spans"] = path
	}
	if err := printResult(stdout, o, metrics); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// addSelfTimes adds each traced layer's self time, as a share of the
// summed duration of the root spans, to the per-layer metrics.
func addSelfTimes(o *outcome, tr *tracer) {
	var roots float64
	for _, s := range tr.spans {
		if s.Parent == 0 {
			roots += float64(s.End - s.Start)
		}
	}
	self := selfTimes(tr.spans)
	for _, name := range spanNames {
		v := 0.0
		if roots > 0 {
			v = float64(self[name]) / roots
		}
		o.layer["self_frac."+name] = v
	}
}

// printResult writes the metadata line, then the result line a caller
// reads (always the last line of standard output).
func printResult(w io.Writer, o *outcome, metrics map[string]float64) error {
	meta, err := json.Marshal(map[string]any{"meta": o.meta})
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := map[string]value{}
	for n, v := range metrics {
		u, ok := units[n]
		if !ok {
			u = layerUnit(n)
		}
		vals[n] = value{v, u}
	}
	if o.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, vals})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", meta, res)
	return err
}
