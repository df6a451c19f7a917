package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// chromeCluster mirrors the merged Chrome trace far enough to validate the
// cluster-wide timeline: per-rank pids on the X events plus the flow
// ("s"/"f") events the cross-rank trace propagation produces.
type chromeCluster struct {
	TraceEvents []struct {
		Name string `json:"name"`
		Cat  string `json:"cat"`
		Ph   string `json:"ph"`
		Pid  int    `json:"pid"`
		Bp   string `json:"bp"`
	} `json:"traceEvents"`
}

func parseChromeFile(t *testing.T, path string) chromeCluster {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ct chromeCluster
	if err := json.Unmarshal(b, &ct); err != nil {
		t.Fatalf("%s does not parse as Chrome trace JSON: %v", path, err)
	}
	return ct
}

// runTelemetryCluster drives k RunWorker goroutines over the given
// transports, each with its own tracer and registry (the multi-process
// shape: nothing shared except the wire). Returns the collector captured
// from rank 0 and the per-rank errors.
func runTelemetryCluster(t *testing.T, transports []rpc.Transport, epochs int, tc TelemetryConfig) (*telemetry.Collector, []error) {
	t.Helper()
	k := len(transports)
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 33})
	var col *telemetry.Collector
	tc.OnCollector = func(c *telemetry.Collector) { col = c }

	errs := make([]error, k)
	done := make(chan int, k)
	for rank := 0; rank < k; rank++ {
		go func(rank int) {
			cfg := Config{
				NumWorkers:  k,
				Pipeline:    true,
				Epochs:      epochs,
				Seed:        34,
				RecvTimeout: 5 * time.Second,
				Tracer:      trace.New(1 << 14),
				Metrics:     metrics.NewRegistry(),
				Telemetry:   &tc,
			}
			_, _, errs[rank] = RunWorker(cfg, d, gcnFactory(d), transports[rank])
			done <- rank
		}(rank)
	}
	watchdog := time.After(120 * time.Second)
	for i := 0; i < k; i++ {
		select {
		case <-done:
		case <-watchdog:
			t.Fatal("telemetry cluster hung")
		}
	}
	return col, errs
}

// TestTelemetrySmoke is the end-to-end check behind make telemetry-smoke: a
// 3-rank cluster with per-rank tracers must leave ONE merged Chrome trace
// on rank 0 carrying clock-aligned epoch and fence spans from every rank,
// resolved cross-rank flow links, and a cluster-wide metrics view holding
// every rank's series.
func TestTelemetrySmoke(t *testing.T) {
	const k = 3
	netw := rpc.NewLoopbackNetwork(k)
	defer netw.Close()
	transports := make([]rpc.Transport, k)
	for rank := 0; rank < k; rank++ {
		transports[rank] = netw.Transport(rank)
	}
	merged := filepath.Join(t.TempDir(), "cluster-trace.json")
	col, errs := runTelemetryCluster(t, transports, 2, TelemetryConfig{Every: 1, MergedTrace: merged})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if col == nil {
		t.Fatal("rank 0 never surfaced its collector")
	}

	ct := parseChromeFile(t, merged)
	seen := map[string]map[int]bool{} // category -> rank set
	var flowS, flowF int
	for _, ev := range ct.TraceEvents {
		switch ev.Ph {
		case "X":
			if seen[ev.Cat] == nil {
				seen[ev.Cat] = map[int]bool{}
			}
			seen[ev.Cat][ev.Pid] = true
		case "s":
			flowS++
		case "f":
			flowF++
		}
	}
	for _, cat := range []string{trace.CatEpoch, trace.CatFence} {
		for rank := 0; rank < k; rank++ {
			if !seen[cat][rank] {
				t.Errorf("merged trace has no %q span from rank %d (got %v)", cat, rank, seen)
			}
		}
	}
	if flowS == 0 || flowS != flowF {
		t.Errorf("cross-rank flow links: %d starts / %d finishes, want a matched nonzero set", flowS, flowF)
	}

	// Clock alignment ran: both peers have offset estimates (any value —
	// same-process tracers are created microseconds apart — but present).
	offs := col.Offsets()
	for rank := int32(1); rank < k; rank++ {
		if _, ok := offs[rank]; !ok {
			t.Errorf("no clock-offset estimate for rank %d (got %v)", rank, offs)
		}
	}

	// The cluster registry holds every rank's collective series.
	reg := col.MergedRegistry()
	for rank := 0; rank < k; rank++ {
		if got := reg.Counter(fmt.Sprintf("collective.ops.rank%d", rank)).Load(); got == 0 {
			t.Errorf("cluster registry missing collective.ops.rank%d", rank)
		}
	}
}

// TestTelemetryFlightOnCrash injects a transport crash on rank 2 mid-run
// and asserts the flight recorder's contract: every rank (victim included)
// leaves a parseable flight-<rank>.json, rank 0 folds the survivors' dumps
// into a merged trace, and the dumps merge offline the way
// cmd/flexgraph-trace does it.
func TestTelemetryFlightOnCrash(t *testing.T) {
	const k = 3
	const crashRank = 2
	netw := rpc.NewLoopbackNetwork(k)
	defer netw.Close()
	transports := make([]rpc.Transport, k)
	for rank := 0; rank < k; rank++ {
		transports[rank] = netw.Transport(rank)
	}
	ft := rpc.NewFaultTransport(transports[crashRank], rpc.FaultConfig{CrashAtFence: true, CrashEpoch: 1})
	transports[crashRank] = ft

	dir := t.TempDir()
	merged := filepath.Join(dir, "crash-trace.json")
	_, errs := runTelemetryCluster(t, transports, 4, TelemetryConfig{
		Every:       1,
		FlightDir:   dir,
		MergedTrace: merged,
	})
	if !errors.Is(errs[crashRank], rpc.ErrCrashed) {
		t.Fatalf("victim: want ErrCrashed, got %v", errs[crashRank])
	}
	for rank := 0; rank < k; rank++ {
		if rank != crashRank && errs[rank] == nil {
			t.Fatalf("survivor %d returned nil error after the crash", rank)
		}
	}

	// Every rank dumped, and the dumps carry the forensics: cause, span
	// tail, goroutine stacks.
	dumps := make([]telemetry.FlightDump, k)
	for rank := 0; rank < k; rank++ {
		d, err := telemetry.ReadFlightFile(filepath.Join(dir, fmt.Sprintf("flight-%d.json", rank)))
		if err != nil {
			t.Fatalf("rank %d flight dump: %v", rank, err)
		}
		if int(d.Rank) != rank || d.Cause == "" || d.Goroutines == "" {
			t.Fatalf("rank %d dump incomplete: rank=%d cause=%q stacks=%d bytes",
				rank, d.Rank, d.Cause, len(d.Goroutines))
		}
		if len(d.Spans) == 0 {
			t.Fatalf("rank %d dump has no spans", rank)
		}
		dumps[rank] = d
	}

	// Rank 0 wrote the merged crash timeline.
	ct := parseChromeFile(t, merged)
	pids := map[int]bool{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "X" {
			pids[ev.Pid] = true
		}
	}
	if !pids[0] {
		t.Fatalf("merged crash trace is missing rank 0 (pids %v)", pids)
	}

	// Offline merge of the on-disk dumps — the cmd/flexgraph-trace path.
	off := telemetry.New(telemetry.Options{Rank: 0, K: k, Tracer: trace.New(16), Registry: metrics.NewRegistry()})
	for _, d := range dumps {
		off.Collector().AddFlight(d)
	}
	out := filepath.Join(dir, "offline.json")
	if err := off.Collector().WriteMergedTrace(out); err != nil {
		t.Fatal(err)
	}
	offline := parseChromeFile(t, out)
	offPids := map[int]bool{}
	for _, ev := range offline.TraceEvents {
		if ev.Ph == "X" {
			offPids[ev.Pid] = true
		}
	}
	for rank := 0; rank < k; rank++ {
		if !offPids[rank] {
			t.Fatalf("offline merge is missing rank %d (pids %v)", rank, offPids)
		}
	}
}
