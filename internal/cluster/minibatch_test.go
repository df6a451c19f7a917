package cluster

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nau"
	"repro/internal/rpc"
	"repro/internal/tensor"
)

// TestClusterMiniBatchDepthInvariance checks the heart of the data-plane
// refactor: prefetch depth and sampler worker count change only *when*
// batches are materialised, never what they contain, so the global losses
// must be bit-identical at every setting, for every cluster size. GCN runs
// the in-edge expansion; PinSage runs the HDG path — the epoch's selection
// memo shared by the sampler workers, and batches rebuilt in released ones.
func TestClusterMiniBatchDepthInvariance(t *testing.T) {
	d := dataset.RedditLike(dataset.Config{Scale: 0.03, Seed: 11})
	pinsage := func(rng *tensor.RNG) *nau.Model {
		return models.NewPinSage(d.FeatureDim(), 8, d.NumClasses, models.PinSageConfig{NumWalks: 4, Hops: 2, TopK: 3}, rng)
	}
	for name, factory := range map[string]ModelFactory{"gcn": gcnFactory(d), "pinsage": pinsage} {
		for _, k := range []int{1, 2, 3} {
			var ref []float32
			for _, mb := range []MiniBatchConfig{
				{BatchSize: 32, PrefetchDepth: 0},
				{BatchSize: 32, PrefetchDepth: 2, SamplerWorkers: 3},
				{BatchSize: 32, PrefetchDepth: 4, SamplerWorkers: 2},
			} {
				cfg := Config{NumWorkers: k, Pipeline: true,
					Epochs: 3, Seed: 13, MiniBatch: &mb}
				res, err := Train(cfg, d, factory)
				if err != nil {
					t.Fatalf("%s k=%d depth=%d: %v", name, k, mb.PrefetchDepth, err)
				}
				if ref == nil {
					ref = res.Losses
					continue
				}
				for epoch := range ref {
					if res.Losses[epoch] != ref[epoch] {
						t.Fatalf("%s k=%d depth=%d workers=%d epoch %d: loss %v != depth-0 loss %v",
							name, k, mb.PrefetchDepth, mb.SamplerWorkers, epoch, res.Losses[epoch], ref[epoch])
					}
				}
			}
		}
	}
}

// TestSamplerSmoke is the `make sampler-smoke` end-to-end check: a
// multi-rank loopback mini-batch run with prefetch depth 2 must (a) finish
// and train, (b) populate the sample_wait_ns histogram (every rank's
// trainer went through Stream.Next), and (c) spend far less wall-clock
// blocked on the sampler than the epochs took — the overlap the prefetch
// pipeline exists to buy. On an in-memory store sampling is cheap, so the
// wait must be a small fraction of the epoch time; without overlap (or with
// the pipeline stalled) the wait would approach the full sampling cost paid
// inline.
func TestSamplerSmoke(t *testing.T) {
	d := dataset.RedditLike(dataset.Config{Scale: 0.05, Seed: 31})
	reg := metrics.NewRegistry()
	res, err := Train(Config{NumWorkers: 3, Pipeline: true,
		Epochs: 3, Seed: 32, Metrics: reg,
		MiniBatch: &MiniBatchConfig{BatchSize: 32, PrefetchDepth: 2, SamplerWorkers: 2}},
		d, gcnFactory(d))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != 3 {
		t.Fatalf("want 3 epoch losses, got %d", len(res.Losses))
	}
	// Batches run through the same layer step as whole-graph epochs, so the
	// breakdown splits their forward into aggregation and update.
	if res.Merged.Get(metrics.StageAggregation) == 0 || res.Merged.Get(metrics.StageUpdate) == 0 {
		t.Fatalf("mini-batch forward not split per stage: aggregation %v, update %v",
			res.Merged.Get(metrics.StageAggregation), res.Merged.Get(metrics.StageUpdate))
	}

	wait := reg.Histogram("sample_wait_ns")
	if wait.Count() == 0 {
		t.Fatal("sample_wait_ns histogram is empty: trainers never went through the prefetch stream")
	}
	var epochs time.Duration
	for _, et := range res.EpochTimes {
		epochs += et
	}
	// All 3 ranks' waits accumulate in the shared registry while epochs run
	// concurrently, so k*epochs bounds a fully-serialised (no-overlap) run;
	// demand better than half of that.
	budget := int64(3) * epochs.Nanoseconds() / 2
	if wait.Sum() > budget {
		t.Fatalf("sampler wait %v exceeds overlap budget %v (epochs %v): prefetch is not overlapping training",
			time.Duration(wait.Sum()), time.Duration(budget), epochs)
	}
}

// TestClusterMiniBatchConverges checks the mini-batch path actually trains.
func TestClusterMiniBatchConverges(t *testing.T) {
	d := dataset.RedditLike(dataset.Config{Scale: 0.03, Seed: 12})
	res, err := Train(Config{NumWorkers: 2, Pipeline: true,
		Epochs: 8, Seed: 5, MiniBatch: &MiniBatchConfig{BatchSize: 32, PrefetchDepth: 2}},
		d, gcnFactory(d))
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Losses[0], res.Losses[len(res.Losses)-1]
	if last >= first {
		t.Fatalf("mini-batch loss did not decrease: %v -> %v", first, last)
	}
}

// TestClusterMiniBatchOverTCP trains a 2-worker mini-batch cluster over
// localhost TCP with prefetch enabled and checks both workers agree with
// each other and with the loopback cluster bit-for-bit — the multi-process
// path of cmd/flexgraph-worker with the sampler in the loop.
func TestClusterMiniBatchOverTCP(t *testing.T) {
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 21})
	factory := gcnFactory(d)
	cfg := Config{NumWorkers: 2, Pipeline: true,
		Epochs: 3, Seed: 22,
		MiniBatch: &MiniBatchConfig{BatchSize: 16, PrefetchDepth: 2, SamplerWorkers: 2}}

	ref, err := Train(cfg, d, factory)
	if err != nil {
		t.Fatal(err)
	}

	t1, err := rpc.NewTCPTransport(1, []string{"unused", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	t0, err := rpc.NewTCPTransport(0, []string{"127.0.0.1:0", t1.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()

	var wg sync.WaitGroup
	losses := make([][]float32, 2)
	errs := make([]error, 2)
	for rank, tr := range []*rpc.TCPTransport{t0, t1} {
		wg.Add(1)
		go func(rank int, tr *rpc.TCPTransport) {
			defer wg.Done()
			if err := tr.Connect(); err != nil {
				errs[rank] = err
				return
			}
			losses[rank], _, errs[rank] = RunWorker(cfg, d, factory, tr)
		}(rank, tr)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", rank, err)
		}
	}
	for epoch := range losses[0] {
		if losses[0][epoch] != losses[1][epoch] {
			t.Fatalf("epoch %d: workers disagree on global loss: %v vs %v",
				epoch, losses[0][epoch], losses[1][epoch])
		}
		if losses[0][epoch] != ref.Losses[epoch] {
			t.Fatalf("epoch %d: TCP loss %v != loopback loss %v",
				epoch, losses[0][epoch], ref.Losses[epoch])
		}
	}
}
