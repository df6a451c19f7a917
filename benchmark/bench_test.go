package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/trace"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// runTiny runs one workload in-process at the smoke size, from a scratch
// directory so the trace file does not land in the source tree.
func runTiny(t *testing.T, workload string, traced int) (runReport, string) {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{"--workload", workload, "--tiny", "--seconds", "0.2", "--trace", map[int]string{0: "0", 1: "1"}[traced]}
	if code := realMain(args, &out, &errb); code != 0 {
		t.Fatalf("%s --trace %d exited %d: %s", workload, traced, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep runReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return rep, out.String()
}

func inScratchDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// checkMetrics asserts the run printed exactly the metrics of defs, each once,
// with its unit.
func checkMetrics(t *testing.T, rep runReport, defs []metricDef) {
	t.Helper()
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, %d defined", len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		got, ok := rep.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
		} else if got.Unit != d.unit {
			t.Errorf("metric %s has unit %q, want %q", d.name, got.Unit, d.unit)
		}
	}
}

func TestEveryWorkloadAtTinySize(t *testing.T) {
	inScratchDir(t)
	for _, sp := range workloads {
		rep, _ := runTiny(t, sp.name, 0)
		checkMetrics(t, rep, endToEnd)
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", sp.name, rep.Correct, rep.Attempted, rep.Failed)
		}
		for name, m := range rep.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; they must never be 0", sp.name, name, m.Value)
			}
		}

		rep, _ = runTiny(t, sp.name, 1)
		checkMetrics(t, rep, perLayer)
		if !rep.Correct || rep.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d", sp.name, rep.Correct, rep.Failed)
		}
		checkTraceFile(t, filepath.Join(outDir, "trace-"+sp.name+".jsonl"))
	}
}

// checkTraceFile asserts the trace parses, holds bench-side and program spans,
// and that every span is a root or names a parent present in the file.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ids := map[uint64]bool{}
	var spans []trace.Span
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var s trace.Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
		ids[s.ID] = true
	}
	bench, program := 0, 0
	for _, s := range spans {
		if s.Rank == benchRank {
			bench++
		} else {
			program++
		}
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("%s: span %q (%s) names parent %d, which is not in the file", path, s.Name, s.Cat, s.Parent)
			return
		}
	}
	if bench < 10 || program < 10 {
		t.Errorf("%s: %d bench-side and %d program spans", path, bench, program)
	}
}

func TestNamesAndBenchmarkJSONAgree(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, sp := range workloads {
		check(sp.name)
		if sp.why == "" || len(sp.why) > 200 || strings.Contains(sp.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", sp.name, len(sp.why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.name)
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better %q", d.name, d.better)
		}
	}

	// BENCHMARK.json at the repository root is written by hand; it must say
	// what spec.go says.
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, spec.go %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, spec.go %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, spec.go %+v", kind, i, g, w)
			}
			if bounded && (g.Bound == nil || *g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25) {
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in spec.go", g.Name, g.Bound, w.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: per-layer metrics carry no bound", g.Name)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd, true)
	same("per_layer", bj.PerLayer, perLayer, false)
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 || len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", bj.RunSeconds, bj.Paths)
	}
}

func TestCompareFlagsSlowdownAndPassesItself(t *testing.T) {
	base := report{
		Seed: 1, Seconds: 10, GOMAXPROCS: 2,
		Sizes: map[string]string{}, Workloads: map[string][]workloadRun{},
	}
	for _, sp := range workloads {
		base.Sizes[sp.name] = sp.size()
		for r := 0; r < 5; r++ {
			jitter := 1 + 0.01*float64(r-2)
			base.Workloads[sp.name] = append(base.Workloads[sp.name], workloadRun{
				Ops: 100, LossHash: "abc",
				Metrics: map[string]float64{"op_p50_ms": 50 * jitter, "throughput_per_s": 1000 / jitter, "setup_s": 0.5 * jitter},
			})
		}
	}
	dir := t.TempDir()
	write := func(name string, r report) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	clone := func() report {
		var r report
		b, _ := json.Marshal(base)
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := write("a.json", base)

	var out, errb bytes.Buffer
	if code := compareReports(a, a, &out, &errb); code != 0 {
		t.Fatalf("a report against itself exited %d:\n%s%s", code, out.String(), errb.String())
	}
	if strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "unchanged") {
		t.Fatalf("self-comparison verdicts:\n%s", out.String())
	}

	// The bound under test: a slowdown just past it on one workload.
	var p50Bound float64
	for _, d := range endToEnd {
		if d.name == "op_p50_ms" {
			p50Bound = d.bound
		}
	}
	slow := clone()
	for i := range slow.Workloads["train_pinsage_skew"] {
		slow.Workloads["train_pinsage_skew"][i].Metrics["op_p50_ms"] *= 1 + p50Bound + 0.02
	}
	out.Reset()
	if code := compareReports(a, write("slow.json", slow), &out, &errb); code == 0 {
		t.Fatalf("a %.0f%% slowdown passed:\n%s", 100*(p50Bound+0.02), out.String())
	}
	regressed := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "regressed") {
			regressed++
			if !strings.Contains(line, "train_pinsage_skew") || !strings.Contains(line, "op_p50_ms") {
				t.Errorf("unexpected regression row: %s", line)
			}
		}
	}
	if regressed != 1 {
		t.Errorf("%d regressed rows, want 1:\n%s", regressed, out.String())
	}

	// A faster B is an improvement, more failures fail, and noise turns
	// unchanged into unresolved but never hides a regression.
	fast := clone()
	noisy := clone()
	noisySlow := clone()
	failing := clone()
	for i, k := range []float64{0.6, 0.8, 1, 1.3, 1.6} {
		fast.Workloads["serve_direct_uniform"][i].Metrics["throughput_per_s"] *= 1.5
		noisy.Workloads["serve_direct_uniform"][i].Metrics["setup_s"] = 0.5 * k
		noisySlow.Workloads["serve_direct_uniform"][i].Metrics["setup_s"] = 2 * 0.5 * k
	}
	failing.Workloads["cluster_gcn_k2_tcp"][0].FailedOps = 3
	for name, want := range map[string]struct {
		r       report
		verdict string
		code    int
	}{
		"fast.json": {fast, "improved", 0}, "noisy.json": {noisy, "unresolved", 0},
		"noisyslow.json": {noisySlow, "regressed", 1}, "failing.json": {failing, "failed_ops/ops rose", 1},
	} {
		out.Reset()
		code := compareReports(a, write(name, want.r), &out, &errb)
		if code != want.code || !strings.Contains(out.String(), want.verdict) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s", name, code, want.code, want.verdict, out.String())
		}
	}

	// Reports taken under different settings are refused.
	other := clone()
	other.GOMAXPROCS = 4
	if code := compareReports(a, write("procs.json", other), &out, &errb); code != 2 {
		t.Errorf("different GOMAXPROCS exited %d, want 2", code)
	}
	other = clone()
	other.Sizes["train_gcn_dense"] = "reddit*9"
	if code := compareReports(a, write("sizes.json", other), &out, &errb); code != 2 {
		t.Errorf("different sizes exited %d, want 2", code)
	}
}
