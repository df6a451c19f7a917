// Command benchmark is FlexGraph-Go's end-to-end benchmark: seven named
// workloads over single-machine training, the 2-rank cluster runtime and the
// serving tier, each measured from outside the program — by timing calls into
// public functions and reading the instruments the program already exposes.
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics (Tracer and Metrics nil);
// with --trace 1 it repeats the workload with bench-side spans around every
// layer call plus the program's own tracer and registry switched on, probes
// every layer at the workload's shapes, writes the spans to
// .bench_build/out/trace-<workload>.jsonl and prints the per-layer metrics.
// The last stdout line is always one JSON object {correct, attempted, failed,
// metrics}. --workload all re-executes the binary once per workload and
// --compare A.json B.json diffs two reports written with --out. README.md
// defines every metric and records the calibration.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/tensor"
	"repro/internal/trace"
)

// outDir receives the trace files; run.sh puts the binary and the Go build
// cache beside it, and .gitignore names the parent.
const outDir = ".bench_build/out"

// benchRank tags bench-side spans so their IDs (rank in the high bits) never
// collide with spans the program's tracer mints for ranks 0..k-1.
const benchRank = 1000

// env is one workload run: its frozen inputs, the bench-side span recorder
// and the result being assembled.
type env struct {
	spec    spec
	seed    uint64
	seconds float64
	tiny    bool
	procs   int // GOMAXPROCS

	bench  *trace.Tracer // nil with --trace 0
	rootID uint64

	ops      int
	failed   int
	problems []string
	metrics  map[string]float64
	detail   map[string]any
}

// span opens a bench-side span around one call into a layer.
func (e *env) span(parent uint64, layer, name string) trace.Region {
	return e.bench.BeginChild(benchRank, 0, 0, layer, name, parent)
}

// fail records a correctness miss; each one counts as a failed operation.
func (e *env) fail(format string, args ...any) {
	e.failed++
	if len(e.problems) < 20 {
		e.problems = append(e.problems, fmt.Sprintf(format, args...))
	}
}

// dur returns frac of the run's --seconds.
func (e *env) dur(frac float64) time.Duration {
	return time.Duration(frac * e.seconds * float64(time.Second))
}

// slice is how long a runner's timed slice lasts in the traced run: a fifth of
// --seconds for the workload's own runner (once untraced, once traced), a
// twentieth for a runner that only prices its layers.
func (e *env) slice(own bool) time.Duration {
	if own {
		return e.dur(0.2)
	}
	return e.dur(0.05)
}

// probeBudget is the time one layer micro-probe may spend repeating its call.
func (e *env) probeBudget() time.Duration {
	if e.tiny {
		return 5 * time.Millisecond
	}
	return 100 * time.Millisecond
}

// runReport is what one process prints on its last line.
type runReport struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name, or \"all\" to run every workload in its own process")
	seed := fs.Uint64("seed", 1, "drives dataset, model init, popularity and arrivals")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	tiny := fs.Bool("tiny", false, "smoke-test sizes (numbers are not comparable)")
	out := fs.String("out", "", "with --workload all: write the report -compare reads")
	runs := fs.Int("runs", 1, "with --workload all: runs per workload")
	compare := fs.Bool("compare", false, "compare two reports: --compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: --compare A.json B.json")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "benchmark: --seconds must be positive and --trace 0 or 1")
		return 2
	}

	// GOMAXPROCS = min(nproc, 4), recorded in the output: go.mod predates Go
	// 1.25, so the runtime ignores container CPU quotas and a large host would
	// otherwise change the kernel fan-out under the same sizes.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	tensor.SetParallelism(procs)

	if *workload == "all" {
		return runAll(*seed, *seconds, *traced, *tiny, procs, *runs, *out, stdout, stderr)
	}
	sp, ok := findSpec(*workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q; known:", *workload)
		for _, s := range workloads {
			fmt.Fprintf(stderr, " %s", s.name)
		}
		fmt.Fprintln(stderr)
		return 2
	}
	e := &env{
		spec: sp, seed: *seed, seconds: *seconds, tiny: *tiny, procs: procs,
		metrics: map[string]float64{},
		detail: map[string]any{
			"workload": sp.name, "seed": *seed, "seconds": *seconds, "tiny": *tiny,
			"gomaxprocs": procs, "size": sp.size(),
		},
	}
	var err error
	if *traced == 1 {
		err = runTraced(e)
	} else {
		err = runEndToEnd(e)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", sp.name, err)
		return 1
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	return e.print(defs, stdout, stderr)
}

// runEndToEnd measures the workload with Tracer and Metrics nil: numRounds
// rounds, each a fresh set-up and a slice of the timed phase (rounds.go).
func runEndToEnd(e *env) error {
	one, n := serveRound, numRounds
	if e.tiny {
		n = 2
	}
	switch e.spec.kind {
	case kindTrain:
		one = trainRound
	case kindCluster:
		// The host cannot be read while the ranks run, so a cluster workload
		// gets twice the rounds, each half as long.
		one, n = clusterRound, 2*n
	}
	m, st := &meter{yard: newYardstick(e.procs)}, &roundState{}
	for i := 0; i < n; i++ {
		m.fence()
		if err := one(e, m, st, i, e.dur(1/float64(n))); err != nil {
			return err
		}
	}
	m.report(e)
	return nil
}

// print writes the human-readable lines, the detail line and the contract's
// final JSON line. A metric that was not produced, or is not a finite number,
// is a bug in the benchmark and fails the run.
func (e *env) print(defs []metricDef, stdout, stderr io.Writer) int {
	values := map[string]metricValue{}
	for _, d := range defs {
		v, ok := e.metrics[d.name]
		if !ok || math.IsNaN(v) {
			fmt.Fprintf(stderr, "benchmark: metric %s was not measured\n", d.name)
			return 1
		}
		if math.IsInf(v, 0) {
			// A percentile made of failed operations: report the miss, with
			// a finite value JSON can carry.
			e.fail("%s is infinite: failed operations reach that percentile", d.name)
			v = math.MaxFloat32
		}
		values[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-34s %16.6g %s\n", d.name, v, d.unit)
	}
	rep := runReport{Correct: e.failed == 0, Attempted: e.ops, Failed: min(e.failed, e.ops), Metrics: values}
	if rep.Attempted < 1 {
		fmt.Fprintln(stderr, "benchmark: no operation was attempted")
		return 1
	}
	e.detail["ops"] = e.ops
	e.detail["failed_ops"] = e.failed
	if len(e.problems) > 0 {
		e.detail["problems"] = e.problems
	}
	db, _ := json.Marshal(e.detail)
	fmt.Fprintf(stdout, "detail %s\n", db)
	rb, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", rb)
	return 0
}

// writeTrace dumps the bench-side spans and the program tracers' spans as
// JSON Lines — the file a regression seen in the numbers can be opened from.
func (e *env) writeTrace(program ...*trace.Tracer) (spans int, dropped uint64, err error) {
	all := e.bench.Spans()
	dropped = e.bench.Dropped()
	for _, t := range program {
		all = append(all, t.Spans()...)
		dropped += t.Dropped()
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 0, 0, err
	}
	path := filepath.Join(outDir, "trace-"+e.spec.name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	if err := trace.WriteJSONL(f, all); err != nil {
		f.Close()
		return 0, 0, err
	}
	e.detail["trace_file"] = path
	return len(all), dropped, f.Close()
}
