package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// chromeSmoke mirrors the Chrome trace-event JSON shape far enough to
// validate what Perfetto needs: an event array whose "X" entries carry
// pid (rank), name, category and timestamps.
type chromeSmoke struct {
	TraceEvents []struct {
		Name string `json:"name"`
		Cat  string `json:"cat"`
		Ph   string `json:"ph"`
		Pid  int    `json:"pid"`
		Ts   float64
		Dur  float64
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// runTraced trains a k-worker loopback cluster for two epochs with tracing
// and metrics on, returning everything the smoke assertions need.
func runTraced(t *testing.T, k int) (*trace.Tracer, *metrics.Registry, *Result, []string) {
	t.Helper()
	tr := trace.New(1 << 14)
	reg := metrics.NewRegistry()
	var lines []string
	cfg := Config{
		NumWorkers: k, Pipeline: true,
		Epochs: 2, Seed: 11,
		Tracer: tr, Metrics: reg,
		OnEpoch: func(epoch int, loss float32, balance *metrics.BalanceReport) {
			if balance == nil {
				t.Errorf("OnEpoch %d: nil balance report", epoch)
				return
			}
			lines = append(lines, fmt.Sprintf("epoch %d loss %.4f\n%s", epoch, loss, balance))
		},
	}
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 40})
	res, err := Train(cfg, d, gcnFactory(d))
	if err != nil {
		t.Fatalf("k=%d traced train: %v", k, err)
	}
	return tr, reg, res, lines
}

// TestTraceSmoke is the end-to-end observability check the Makefile's
// trace-smoke target runs: a multi-worker loopback epoch with tracing on
// must produce a parseable Chrome trace with epoch, stage and fence spans
// from every rank, a per-epoch balance report, and populated fence-wait
// histograms.
func TestTraceSmoke(t *testing.T) {
	for _, k := range []int{2, 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			tr, reg, res, lines := runTraced(t, k)

			// The Chrome trace must parse and carry spans from all k ranks
			// in every span category the cluster emits.
			var buf bytes.Buffer
			if err := tr.WriteChromeTrace(&buf); err != nil {
				t.Fatal(err)
			}
			var ct chromeSmoke
			if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
				t.Fatalf("chrome trace does not parse: %v", err)
			}
			seen := map[string]map[int]bool{} // category -> rank set
			for _, ev := range ct.TraceEvents {
				if ev.Ph != "X" {
					continue
				}
				if seen[ev.Cat] == nil {
					seen[ev.Cat] = map[int]bool{}
				}
				seen[ev.Cat][ev.Pid] = true
			}
			for _, cat := range []string{trace.CatEpoch, trace.CatStage, trace.CatFence} {
				for rank := 0; rank < k; rank++ {
					if !seen[cat][rank] {
						t.Errorf("no %q span from rank %d (got %v)", cat, rank, seen)
					}
				}
			}

			// Every epoch produced a balance report with per-rank stage
			// seconds for all k ranks and a sane skew.
			if len(res.Balance) != 2 {
				t.Fatalf("got %d balance reports, want 2", len(res.Balance))
			}
			for _, rep := range res.Balance {
				if rep.Ranks() != k {
					t.Fatalf("balance report has %d ranks, want %d", rep.Ranks(), k)
				}
				maxSec, meanSec, ratio, _ := rep.Skew(metrics.StageAggregation)
				if !(maxSec > 0 && meanSec > 0 && ratio >= 1) {
					t.Errorf("aggregation skew: max=%v mean=%v ratio=%v", maxSec, meanSec, ratio)
				}
				if !strings.Contains(rep.String(), "max/mean") {
					t.Errorf("balance table missing skew column:\n%s", rep)
				}
			}

			// OnEpoch fired on rank 0 once per epoch with the table.
			if len(lines) != 2 {
				t.Fatalf("OnEpoch fired %d times, want 2", len(lines))
			}

			// The fence-wait histogram of every rank saw samples, and the
			// registry's text dump lists them.
			for rank := 0; rank < k; rank++ {
				h := reg.Histogram(fmt.Sprintf("collective.fence_wait_ns.rank%d", rank))
				if h.Count() == 0 {
					t.Errorf("rank %d fence-wait histogram is empty", rank)
				}
			}
			var text bytes.Buffer
			if err := reg.WriteText(&text); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(text.String(), "cluster.epoch_loss") {
				t.Errorf("registry dump missing epoch loss gauge:\n%s", text.String())
			}
		})
	}
}

// TestBalanceReportGatherExact pins the gather-by-summation trick: with
// k=1 there are no peers to sum with, and the report must still carry the
// local stage seconds.
func TestBalanceReportGatherExact(t *testing.T) {
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 41})
	res, err := Train(Config{NumWorkers: 1, Epochs: 1, Seed: 5}, d, gcnFactory(d))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Balance) != 1 || res.Balance[0].Ranks() != 1 {
		t.Fatalf("k=1 balance: %+v", res.Balance)
	}
	if maxSec, _, _, _ := res.Balance[0].Skew(metrics.StageUpdate); maxSec <= 0 {
		t.Fatalf("k=1 update seconds not recorded: %v", maxSec)
	}
}
