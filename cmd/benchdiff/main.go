// Command benchdiff guards the microbenchmark baselines committed in
// BENCH_kernels.json (the default) and, with -baseline, BENCH_sampler.json.
// It parses raw `go test -bench` output (a file argument or stdin), writes a
// machine-readable snapshot, and compares every baseline row that carries a
// "bench" field against the fresh measurement:
//
//	go test -run xxx -bench 'Kernel' -benchmem ./internal/tensor/ > out.txt
//	go test -run xxx -bench 'Fused' -benchmem ./internal/engine/ >> out.txt
//	go run ./cmd/benchdiff out.txt
//
// The exit status is non-zero when any opt row regresses more than
// -max-regress (fraction, default 0.10) over its committed ns/op, allocates
// more than -max-alloc-regress (plus -alloc-slack allocations) over its
// committed allocs/op (off by default; allocation counts repeat where wall
// time on a shared host does not), or when a baseline row was not measured
// at all (disable with -require-all=false for partial smoke runs). A baseline
// with no "bench" fields at all (BENCH_comm.json) gates nothing: the run only
// writes the snapshot.
// `make bench-kernels-diff` wires the full pipeline; `make bench-smoke` runs
// a short-iteration subset so CI catches rows that stop compiling, start
// allocating or fall off a cliff without paying for a full benchmark run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// baseline mirrors the parts of a BENCH_*.json baseline benchdiff needs; unknown
// fields (machine info, notes, seed rows' extra detail) pass through
// untouched because the file is only read here, never rewritten.
type baseline struct {
	Suites []struct {
		Name       string `json:"name"`
		Benchmarks []struct {
			Name  string `json:"name"`
			Bench string `json:"bench"` // raw benchmark name, e.g. BenchmarkKernelScatterMax/opt
			Opt   struct {
				NsOp     float64 `json:"ns_op"`
				AllocsOp int64   `json:"allocs_op"`
			} `json:"opt"`
		} `json:"benchmarks"`
	} `json:"suites"`
}

// measurement is one parsed `go test -bench` result line.
type measurement struct {
	NsOp     float64
	BytesOp  int64
	AllocsOp int64
	HasMem   bool
}

// parseBench extracts benchmark lines from raw `go test -bench` output,
// keyed by name with any trailing -GOMAXPROCS suffix stripped. Repeated
// names (bench -count > 1) keep the fastest run.
func parseBench(r io.Reader) (map[string]measurement, []string, error) {
	out := map[string]measurement{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := stripProcs(fields[0])
		var m measurement
		ok := false
		for i := 1; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsOp, ok = v, true
			case "B/op":
				m.BytesOp, m.HasMem = int64(v), true
			case "allocs/op":
				m.AllocsOp = int64(v)
			}
		}
		if !ok {
			continue
		}
		if prev, seen := out[name]; seen {
			if prev.NsOp <= m.NsOp {
				continue
			}
		} else {
			order = append(order, name)
		}
		out[name] = m
	}
	return out, order, sc.Err()
}

// stripProcs removes the -N GOMAXPROCS suffix go appends on multi-core
// machines, so names match across machines.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func writeLatest(path string, results map[string]measurement, order []string) error {
	var b strings.Builder
	b.WriteString("{\n  \"benchmarks\": [\n")
	for i, name := range order {
		m := results[name]
		if i > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, "    {\"name\": %q, \"ns_per_op\": %d", name, int64(m.NsOp))
		if m.HasMem {
			fmt.Fprintf(&b, ", \"bytes_per_op\": %d, \"allocs_per_op\": %d", m.BytesOp, m.AllocsOp)
		}
		b.WriteString("}")
	}
	b.WriteString("\n  ]\n}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_kernels.json", "committed baseline file")
	latestPath := flag.String("write-latest", "BENCH_kernels.latest.json", "snapshot file to (re)write; empty to skip")
	maxRegress := flag.Float64("max-regress", 0.10, "maximum tolerated opt-row slowdown as a fraction of the baseline ns/op")
	maxAllocRegress := flag.Float64("max-alloc-regress", -1, "maximum tolerated growth of an opt row's allocs/op as a fraction of the baseline; negative skips the check")
	allocSlack := flag.Int64("alloc-slack", 0, "allocs/op tolerated on top of -max-alloc-regress: a pooled kernel with a handful of allocations per op misses the pool once in a few iterations, which is +1, not a regression")
	requireAll := flag.Bool("require-all", true, "fail when a baseline row with a bench field was not measured")
	flag.Parse()

	in := io.Reader(os.Stdin)
	src := "stdin"
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal("open bench output: %v", err)
		}
		defer f.Close()
		in, src = f, flag.Arg(0)
	}
	results, order, err := parseBench(in)
	if err != nil {
		fatal("parse %s: %v", src, err)
	}
	if len(results) == 0 {
		fatal("no benchmark lines found in %s", src)
	}
	if *latestPath != "" {
		if err := writeLatest(*latestPath, results, order); err != nil {
			fatal("write latest: %v", err)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *latestPath, len(results))
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal("read baseline: %v", err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal("parse baseline %s: %v", *baselinePath, err)
	}

	type row struct {
		bench           string
		baseline        float64
		latest          float64
		allocs, allocs0 int64 // measured and baseline allocs/op; allocs0 == 0 when unchecked
	}
	var checked []row
	var missing []string
	for _, suite := range base.Suites {
		for _, b := range suite.Benchmarks {
			if b.Bench == "" {
				continue
			}
			m, ok := results[b.Bench]
			if !ok {
				missing = append(missing, b.Bench)
				continue
			}
			r := row{bench: b.Bench, baseline: b.Opt.NsOp, latest: m.NsOp}
			if *maxAllocRegress >= 0 && m.HasMem {
				r.allocs, r.allocs0 = m.AllocsOp, b.Opt.AllocsOp
			}
			checked = append(checked, r)
		}
	}
	if len(checked) == 0 && len(missing) == 0 {
		// An ungated baseline (BENCH_comm.json): the snapshot is the output.
		fmt.Printf("baseline %s has no rows with a \"bench\" field; nothing gated\n", *baselinePath)
		return
	}

	sort.Slice(checked, func(i, j int) bool {
		return checked[i].latest/checked[i].baseline > checked[j].latest/checked[j].baseline
	})
	failed := 0
	for _, r := range checked {
		ratio := r.latest / r.baseline
		slow := ratio > 1+*maxRegress
		greedy := r.allocs0 > 0 && float64(r.allocs) > float64(r.allocs0)*(1+*maxAllocRegress)+float64(*allocSlack)
		status := "ok  "
		if slow || greedy {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%s %-44s baseline %12.0f ns/op  now %12.0f ns/op  (%+.1f%%)\n",
			status, r.bench, r.baseline, r.latest, (ratio-1)*100)
		if greedy {
			fmt.Printf("     %-44s baseline %12d allocs/op  now %9d allocs/op\n", "", r.allocs0, r.allocs)
		}
	}
	if *requireAll {
		for _, name := range missing {
			fmt.Printf("FAIL %-44s not measured in %s\n", name, src)
			failed++
		}
	} else if len(missing) > 0 {
		fmt.Printf("note: %d baseline rows not measured (partial run)\n", len(missing))
	}
	if failed > 0 {
		fatal("%d of %d checked rows regressed more than %.0f%% (or allocated more than allowed, or were missing) vs %s",
			failed, len(checked)+len(missing), *maxRegress*100, *baselinePath)
	}
	fmt.Printf("all %d checked rows within %.0f%% of %s\n", len(checked), *maxRegress*100, *baselinePath)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}
