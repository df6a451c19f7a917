// Command benchpairs makes a paired end-to-end claim against a base commit:
// it builds the benchmark of BENCHMARK.json twice — from a git clone of the
// base commit and from the working tree — runs both for the benchmark's 12 s
// on every seed with the order alternated per seed, and prints per workload
// and per end-to-end metric (op_p50_ms, throughput_per_s, setup_s) the
// medians, the wins counted in the metric's better direction and the base's
// quartile distance a claim quotes, whether the seeds' loss_hash agree
// across the binaries, and each binary's yardstick placement.
//
//	make pairs BASE=<commit> WORKLOADS='cluster_gcn_k2_tcp' SEEDS='21-26,31-34'
//	go run ./cmd/benchpairs -base <commit> -workloads w1,w2 -seeds 21-26,31-34
//
// The base, the workloads and the seeds have no default: a claim names its
// seeds, and seeds already spent on sizing a change must not be reused by
// accident. Builds and every run's last (JSON) line, with its side, workload
// and seed, go under .bench_build/pairs (runs.jsonl). The benchmark divides raw times by a host-slowdown
// reading taken by main.(*yardstick).once.func1, and that loop runs ~7 %
// slower when the linker places the function at ≡ 32 (mod 64) than at ≡ 0, so
// the report prints both placements and the raw medians beside the scaled
// ones. With -control it also builds a padded base: the base plus a
// never-run function reachable from an init in internal/rpc, resized until
// the yardstick lands where the change's does. The three binaries then
// rotate per seed, and the padded base is the comparison that holds layout
// fixed.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// side is one benchmark binary and the checkout it runs from.
type side struct {
	name, dir, bin string
	yard           uint64 // address of the yardstick's loop function
}

// run is what one benchmark invocation reports.
type run struct {
	Side     string  `json:"side"`
	Workload string  `json:"workload"`
	Seed     int     `json:"seed"`
	P50      float64 `json:"op_p50_ms"`
	Thru     float64 `json:"throughput_per_s"`
	Setup    float64 `json:"setup_s"`
	RawP50   float64 `json:"raw_op_p50_ms"`
	RawThru  float64 `json:"raw_throughput_per_s"`
	RawSetup float64 `json:"raw_setup_s"`
	LossHash string  `json:"loss_hash,omitempty"` // training and cluster workloads only
	Correct  bool    `json:"correct"`
	Failed   int     `json:"failed"`
	Last     string  `json:"last_line"`
}

// metric is one end-to-end metric of the benchmark (benchmark/spec.go's
// endToEnd) with its raw reading from the detail line.
type metric struct {
	name, unit, format string
	higher             bool // better when higher
	scaled, raw        func(run) float64
}

var metrics = []metric{
	{"op_p50_ms", "ms", "%.3f", false, func(r run) float64 { return r.P50 }, func(r run) float64 { return r.RawP50 }},
	{"throughput_per_s", "/s", "%.0f", true, func(r run) float64 { return r.Thru }, func(r run) float64 { return r.RawThru }},
	{"setup_s", "s", "%.3f", false, func(r run) float64 { return r.Setup }, func(r run) float64 { return r.RawSetup }},
}

// fmtv formats v the way m's values are quoted.
func (m metric) fmtv(v float64) string { return fmt.Sprintf(m.format, v) }

// runLength is BENCHMARK.json's run_seconds: a claim is made at the length
// the benchmark runs, on both sides.
const runLength = 12

// pairsDir holds the clones, the binaries, their build cache and runs.jsonl.
const pairsDir = ".bench_build/pairs"

func main() {
	log.SetFlags(0)
	base := flag.String("base", "", "commit to compare the working tree against (required)")
	workloads := flag.String("workloads", "", "workloads, comma- or space-separated (required)")
	seeds := flag.String("seeds", "", "seeds, e.g. 21-26,31-34 (required)")
	control := flag.Bool("control", false, "also build and run a base padded to the change's yardstick placement")
	flag.Parse()
	if *base == "" || *workloads == "" || *seeds == "" {
		log.Fatal("benchpairs: -base, -workloads and -seeds are required")
	}
	seedList, err := parseSeeds(*seeds)
	if err != nil {
		log.Fatal(err)
	}
	root, err := filepath.Abs(".")
	if err != nil {
		log.Fatal(err)
	}
	outDir, err := filepath.Abs(pairsDir)
	if err != nil {
		log.Fatal(err)
	}
	must(os.MkdirAll(outDir, 0o755))
	commit := strings.TrimSpace(output(root, "git", "rev-parse", "--short", *base))

	parent := side{name: "parent", dir: filepath.Join(outDir, "parent")}
	clone(root, parent.dir, commit)
	change := side{name: "change", dir: root}
	sides := []*side{&parent}
	if *control {
		padded := side{name: "padded", dir: filepath.Join(outDir, "padded")}
		clone(root, padded.dir, commit)
		sides = append(sides, &padded)
	}
	sides = append(sides, &change)
	for _, s := range sides {
		if s.name != "padded" {
			build(s, outDir)
		}
	}
	if *control {
		pad(sides[1], change.yard, outDir)
	}
	for _, s := range sides {
		log.Printf("benchpairs: %s yardstick %#x ≡ %d (mod 64)", s.name, s.yard, s.yard%64)
	}

	runsFile, err := os.Create(filepath.Join(outDir, "runs.jsonl"))
	must(err)
	defer runsFile.Close()
	for _, w := range strings.FieldsFunc(*workloads, func(r rune) bool { return r == ',' || r == ' ' }) {
		byside := map[string][]run{}
		for i, seed := range seedList {
			for j := range sides {
				s := sides[(i+j)%len(sides)] // rotate who goes first per seed
				r := runOnce(s, w, seed)
				line, _ := json.Marshal(r)
				fmt.Fprintf(runsFile, "%s\n", line)
				byside[s.name] = append(byside[s.name], r)
				log.Printf("benchpairs: %s seed %d %s op_p50_ms %.3f raw %.3f", w, seed, s.name, r.P50, r.RawP50)
			}
		}
		report(w, commit, seedList, sides, byside)
	}
}

// clone makes dir a fresh git clone of root checked out at commit.
func clone(root, dir, commit string) {
	must(os.RemoveAll(dir))
	output(root, "git", "clone", "-q", root, dir)
	output(dir, "git", "checkout", "-q", commit)
}

// build compiles s's benchmark the way benchmark/run.sh does, with one shared
// build cache, and reads its yardstick's address.
func build(s *side, outDir string) {
	s.bin = filepath.Join(outDir, "flexbench-"+s.name)
	cmd := exec.Command("go", "build", "-C", filepath.Join(s.dir, "benchmark"), "-o", s.bin, ".")
	cmd.Env = append(os.Environ(), "GOCACHE="+filepath.Join(outDir, "gocache"),
		"GOPATH="+filepath.Join(outDir, "gopath"), "GOFLAGS=-mod=mod", "GOTOOLCHAIN=local", "GOWORK=off")
	if b, err := cmd.CombinedOutput(); err != nil {
		log.Fatalf("benchpairs: building %s: %v\n%s", s.name, err, b)
	}
	s.yard = yardstick(s.bin)
}

// yardstick returns the address of main.(*yardstick).once.func1 in bin.
func yardstick(bin string) uint64 {
	sc := bufio.NewScanner(strings.NewReader(output(".", "go", "tool", "nm", bin)))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 3 && f[len(f)-1] == "main.(*yardstick).once.func1" {
			a, err := strconv.ParseUint(f[0], 16, 64)
			must(err)
			return a
		}
	}
	log.Fatalf("benchpairs: no yardstick symbol in %s", bin)
	return 0
}

// pad grows a never-run function in s's internal/rpc until s's yardstick
// sits at want's placement (mod 64). The function is reachable from an init
// through a branch on a variable that is never negative, so the linker keeps
// it and nothing executes it.
func pad(s *side, want uint64, outDir string) {
	for n := 0; n < 64; n++ {
		var b bytes.Buffer
		b.WriteString("package rpc\n\n// Layout padding for a benchmark control build; never runs.\n\nvar padSink int\n\n")
		b.WriteString("func init() {\n\tif padSink < 0 {\n\t\tpadFill()\n\t}\n}\n\nfunc padFill() {\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "\tpadSink = padSink*%d + %d\n", 3+i%5, i)
		}
		b.WriteString("}\n")
		must(os.WriteFile(filepath.Join(s.dir, "internal", "rpc", "zz_layout_pad.go"), b.Bytes(), 0o644))
		build(s, outDir)
		if s.yard%64 == want%64 {
			log.Printf("benchpairs: padded base matches at %d padding statements", n)
			return
		}
	}
	log.Fatalf("benchpairs: no padding reached the change's yardstick placement ≡ %d", want%64)
}

// runOnce runs one benchmark invocation from s's checkout and parses its
// detail line and its last line.
func runOnce(s *side, workload string, seed int) run {
	cmd := exec.Command(s.bin, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(runLength), "--trace", "0")
	cmd.Dir = s.dir
	b, err := cmd.Output()
	if err != nil {
		log.Fatalf("benchpairs: %s %s seed %d: %v", s.name, workload, seed, err)
	}
	r := run{Side: s.name, Workload: workload, Seed: seed}
	var last struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	var detail struct {
		RawOp    map[string]float64 `json:"raw_op_quantiles_ms"`
		RawThru  float64            `json:"raw_throughput_per_s"`
		RawSetup []float64          `json:"raw_setups_s"`
		LossHash string             `json:"loss_hash"`
	}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		switch {
		case strings.HasPrefix(line, "detail "):
			must(json.Unmarshal([]byte(strings.TrimPrefix(line, "detail ")), &detail))
		case strings.HasPrefix(line, `{"correct"`):
			must(json.Unmarshal([]byte(line), &last))
			r.Last = line
		}
	}
	if r.Last == "" {
		log.Fatalf("benchpairs: %s %s seed %d printed no result line", s.name, workload, seed)
	}
	r.Correct, r.Failed = last.Correct, last.Failed
	r.P50, r.Thru, r.Setup = last.Metrics["op_p50_ms"].Value, last.Metrics["throughput_per_s"].Value, last.Metrics["setup_s"].Value
	r.RawP50, r.RawThru, r.RawSetup = detail.RawOp["p50"], detail.RawThru, median(detail.RawSetup)
	r.LossHash = detail.LossHash
	return r
}

// report prints one workload's table, each metric's comparison of the
// change against every other side, the loss_hash check and the sentences a
// claim pastes.
func report(w, commit string, seeds []int, sides []*side, byside map[string][]run) {
	fmt.Printf("\n== %s: %d seeds (%s), base %s\n", w, len(seeds), seedRanges(seeds), commit)
	fmt.Printf("%-8s %-17s %12s %12s %10s\n", "side", "metric", "median", "raw median", "IQR")
	for _, s := range sides {
		rs := byside[s.name]
		for _, m := range metrics {
			v := pick(rs, m.scaled)
			fmt.Printf("%-8s %-17s %12s %12s %10s\n", s.name, m.name, m.fmtv(median(v)), m.fmtv(median(pick(rs, m.raw))), m.fmtv(iqr(v)))
		}
		failed := 0
		for _, r := range rs {
			if !r.Correct {
				failed++
			}
			failed += r.Failed
		}
		fmt.Printf("%-8s yardstick ≡ %d (mod 64), %d failed\n", s.name, s.yard%64, failed)
	}
	change := sides[len(sides)-1]
	b := byside[change.name]
	for _, ref := range sides[:len(sides)-1] {
		a := byside[ref.name]
		fmt.Printf("change vs %s: %s\n", ref.name, hashCheck(a, b))
		placement := fmt.Sprintf("yardsticks at ≡ %d (%s) and ≡ %d (change) (mod 64)", ref.yard%64, ref.name, change.yard%64)
		if ref.yard%64 == change.yard%64 {
			placement = fmt.Sprintf("both yardsticks at ≡ %d (mod 64)", change.yard%64)
		}
		for _, m := range metrics {
			pa, pb := pick(a, m.scaled), pick(b, m.scaled)
			wins := 0
			for i := range pa {
				if m.higher && pb[i] > pa[i] || !m.higher && pb[i] < pa[i] {
					wins++
				}
			}
			gain := median(pa) - median(pb) // how much better the change's median is
			if m.higher {
				gain = -gain
			}
			spread := iqr(pa)
			verdict := "gain beyond the IQR"
			switch {
			case math.Abs(gain) <= spread:
				verdict = "within the IQR"
			case gain < 0:
				verdict = "regression beyond the IQR"
			}
			fmt.Printf("  %-17s wins %d/%d, median %s → %s %s (%s), %s IQR %s (%s)\n", m.name, wins, len(pa),
				m.fmtv(median(pa)), m.fmtv(median(pb)), m.unit, pct(median(pa), median(pb)), ref.name, m.fmtv(spread), verdict)
			ra, rb := median(pick(a, m.raw)), median(pick(b, m.raw))
			fmt.Printf("  CHANGES: `%s` `%s` %s → %s %s scaled (%s), raw %s → %s (%s), %s alternated pairs against %s%s on seeds %s, change better in %d/%d, %s quartile distance %s %s; %s.\n",
				w, m.name, m.fmtv(median(pa)), m.fmtv(median(pb)), m.unit, pct(median(pa), median(pb)), m.fmtv(ra), m.fmtv(rb), pct(ra, rb),
				count(len(pa)), map[bool]string{true: "the padded ", false: ""}[ref.name == "padded"], commit,
				seedRanges(seeds), wins, len(pa), ref.name, m.fmtv(spread), m.unit, placement)
		}
	}
}

// hashCheck says whether every seed's loss_hash is the same on both sides.
func hashCheck(a, b []run) string {
	if a[0].LossHash == "" {
		return "no loss_hash (a serving workload)"
	}
	var differ []int
	for i := range a {
		if a[i].LossHash != b[i].LossHash {
			differ = append(differ, a[i].Seed)
		}
	}
	if len(differ) > 0 {
		return fmt.Sprintf("loss_hash DIFFERS on seeds %s", seedRanges(differ))
	}
	return fmt.Sprintf("loss_hash equal on all %d seeds", len(a))
}

func pick(rs []run, f func(run) float64) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	return v
}

// quantile is the linear-interpolation quantile of v (type 7).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }
func iqr(v []float64) float64    { return quantile(v, 0.75) - quantile(v, 0.25) }

func pct(from, to float64) string {
	return strings.Replace(fmt.Sprintf("%+.1f %%", 100*(to-from)/from), "-", "−", 1)
}

func count(n int) string {
	words := []string{"zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten"}
	if n < len(words) {
		return words[n]
	}
	return strconv.Itoa(n)
}

// parseSeeds reads "21-26,31-34 41" into a list.
func parseSeeds(spec string) ([]int, error) {
	var seeds []int
	for _, f := range strings.FieldsFunc(spec, func(r rune) bool { return r == ',' || r == ' ' }) {
		lo, hi, isRange := strings.Cut(f, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return nil, fmt.Errorf("benchpairs: bad seed %q", f)
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil || b < a {
				return nil, fmt.Errorf("benchpairs: bad seed range %q", f)
			}
		}
		for s := a; s <= b; s++ {
			seeds = append(seeds, s)
		}
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("benchpairs: no seeds in %q", spec)
	}
	return seeds, nil
}

// seedRanges writes seeds back as ranges: 21–26, 31–34.
func seedRanges(seeds []int) string {
	var parts []string
	for i := 0; i < len(seeds); {
		j := i
		for j+1 < len(seeds) && seeds[j+1] == seeds[j]+1 {
			j++
		}
		if j == i {
			parts = append(parts, strconv.Itoa(seeds[i]))
		} else {
			parts = append(parts, fmt.Sprintf("%d–%d", seeds[i], seeds[j]))
		}
		i = j + 1
	}
	return strings.Join(parts, ", ")
}

func output(dir, name string, args ...string) string {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	b, err := cmd.Output()
	if err != nil {
		log.Fatalf("benchpairs: %s %s: %v", name, strings.Join(args, " "), err)
	}
	return string(b)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
