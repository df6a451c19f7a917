package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// report is what --workload all --out writes and --compare reads: the
// settings that must match between two reports, and every run's numbers.
type report struct {
	Seed       uint64                   `json:"seed"`
	Seconds    float64                  `json:"seconds"`
	Trace      int                      `json:"trace"`
	Tiny       bool                     `json:"tiny"`
	GOMAXPROCS int                      `json:"gomaxprocs"`
	Sizes      map[string]string        `json:"sizes"`
	Workloads  map[string][]workloadRun `json:"workloads"`
}

type workloadRun struct {
	Ops       int                `json:"ops"`
	FailedOps int                `json:"failed_ops"`
	LossHash  string             `json:"loss_hash,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// runAll runs every workload `runs` times, each run in its own process (the
// binary re-executes itself), echoes the children's output and writes the
// report. It fails when any run fails, reports a failed operation, or when
// two runs of one seed disagree on the loss hash.
func runAll(seed uint64, seconds float64, traced int, tiny bool, procs, runs int, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	rep := report{
		Seed: seed, Seconds: seconds, Trace: traced, Tiny: tiny, GOMAXPROCS: procs,
		Sizes: map[string]string{}, Workloads: map[string][]workloadRun{},
	}
	code := 0
	for _, sp := range workloads {
		rep.Sizes[sp.name] = sp.size()
		for r := 0; r < runs; r++ {
			args := []string{
				"--workload", sp.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
				"--trace", fmt.Sprint(traced),
			}
			if tiny {
				args = append(args, "--tiny")
			}
			cmd := exec.Command(self, args...)
			var buf bytes.Buffer
			cmd.Stdout = io.MultiWriter(&buf, stdout)
			cmd.Stderr = stderr
			fmt.Fprintf(stdout, "== %s run %d/%d\n", sp.name, r+1, runs)
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", sp.name, err)
				code = 1
				continue
			}
			run, err := parseRun(buf.String())
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", sp.name, err)
				code = 1
				continue
			}
			if run.FailedOps > 0 {
				code = 1
			}
			if prev := rep.Workloads[sp.name]; len(prev) > 0 && prev[0].LossHash != run.LossHash {
				fmt.Fprintf(stderr, "benchmark: %s: loss_hash %s differs from the first run's %s\n", sp.name, run.LossHash, prev[0].LossHash)
				code = 1
			}
			rep.Workloads[sp.name] = append(rep.Workloads[sp.name], run)
		}
	}
	if out != "" {
		b, _ := json.MarshalIndent(rep, "", " ")
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

// parseRun reads one child's output: the contract's last line and the detail
// line before it.
func parseRun(out string) (workloadRun, error) {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 {
		return workloadRun{}, fmt.Errorf("child printed no result")
	}
	var rr runReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rr); err != nil {
		return workloadRun{}, fmt.Errorf("last line is not the result object: %w", err)
	}
	var detail struct {
		LossHash string `json:"loss_hash"`
	}
	if d, ok := strings.CutPrefix(lines[len(lines)-2], "detail "); ok {
		if err := json.Unmarshal([]byte(d), &detail); err != nil {
			return workloadRun{}, fmt.Errorf("detail line: %w", err)
		}
	}
	run := workloadRun{Ops: rr.Attempted, FailedOps: rr.Failed, LossHash: detail.LossHash, Metrics: map[string]float64{}}
	for name, v := range rr.Metrics {
		run.Metrics[name] = v.Value
	}
	return run, nil
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// values collects one metric over a workload's runs.
func values(runs []workloadRun, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// spread is the distance between the quartiles of a metric's runs as a share
// of their median: the run-to-run noise a difference between two reports has
// to clear (with two or three runs the quartiles are the extremes).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// compareReports prints one row per (workload, end-to-end metric): both
// medians, the bound and a verdict. B regressed when its median is worse than
// A's by more than the bound and improved when it is better by more than the
// bound, however noisy the runs were; a pair inside the bound is unchanged
// only when both sides' spreads are inside it too, and unresolved otherwise.
// The exit code is non-zero on any regression or a higher failed_ops/ops.
func compareReports(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := loadReport(pathA)
	b, errB := loadReport(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds || a.GOMAXPROCS != b.GOMAXPROCS || a.Tiny != b.Tiny || a.Trace != b.Trace {
		fmt.Fprintf(stderr, "benchmark: reports are not comparable: seed %d/%d seconds %g/%g GOMAXPROCS %d/%d tiny %v/%v trace %d/%d\n",
			a.Seed, b.Seed, a.Seconds, b.Seconds, a.GOMAXPROCS, b.GOMAXPROCS, a.Tiny, b.Tiny, a.Trace, b.Trace)
		return 2
	}
	for name, size := range a.Sizes {
		if b.Sizes[name] != size {
			fmt.Fprintf(stderr, "benchmark: reports are not comparable: %s is %q in A and %q in B\n", name, size, b.Sizes[name])
			return 2
		}
	}
	code := 0
	fmt.Fprintf(stdout, "%-30s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, sp := range workloads {
		ra, rb := a.Workloads[sp.name], b.Workloads[sp.name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(stdout, "%-30s missing from a report\n", sp.name)
			code = 1
			continue
		}
		for _, d := range endToEnd {
			va, vb := values(ra, d.name), values(rb, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			// worse > 0 means B is worse than A by that share of A.
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			verdict := "unchanged"
			switch {
			case worse > d.bound:
				verdict = "regressed"
				code = 1
			case worse < -d.bound:
				verdict = "improved"
			case spread(va) > d.bound || spread(vb) > d.bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(stdout, "%-30s %-18s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n",
				sp.name, d.name, ma, mb, 100*(mb-ma)/ma, 100*d.bound, verdict)
		}
		if fa, fb := failShare(ra), failShare(rb); fb > fa {
			fmt.Fprintf(stdout, "%-30s failed_ops/ops rose from %g to %g\n", sp.name, fa, fb)
			code = 1
		}
	}
	return code
}

func failShare(runs []workloadRun) float64 {
	var ops, failed int
	for _, r := range runs {
		ops += r.Ops
		failed += r.FailedOps
	}
	if ops == 0 {
		return 0
	}
	return float64(failed) / float64(ops)
}
