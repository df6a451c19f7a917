package cluster

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nau"
	"repro/internal/tensor"
)

// simulateEpoch runs the first epoch of a new simulation.
func simulateEpoch(d *dataset.Dataset, factory ModelFactory, cfg SimConfig) (*SimResult, error) {
	sim, err := NewSimulation(d, factory, cfg)
	if err != nil {
		return nil, err
	}
	return sim.Epoch()
}

func TestSimulateEpochGCN(t *testing.T) {
	d := dataset.RedditLike(dataset.Config{Scale: 0.05, Seed: 1})
	res, err := simulateEpoch(d, gcnFactory(d), SimConfig{NumWorkers: 4, Pipeline: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.EpochTime <= 0 || res.AggTime <= 0 {
		t.Fatalf("times must be positive: %+v", res)
	}
	if res.Loss <= 0 {
		t.Fatalf("loss = %v", res.Loss)
	}
	if len(res.PerWorker) != 4 {
		t.Fatalf("per-worker entries = %d", len(res.PerWorker))
	}
	var bytes int64
	for _, w := range res.PerWorker {
		bytes += w.BytesIn
	}
	if bytes == 0 {
		t.Fatal("no modeled traffic")
	}
}

func TestSimLossMatchesConcurrentCluster(t *testing.T) {
	// The simulator runs the concurrent runtime's own arithmetic, so the
	// first-epoch global loss agrees up to the final fold (the all-reduce
	// sums float32 in rank order, the simulator float64), and it prices the
	// very messages the runtime sends, so each rank's modeled bytes equal
	// the feature/partial bytes that rank received.
	reddit := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 3})
	imdb := dataset.IMDBLike(dataset.Config{Scale: 0.04, Seed: 7})
	cases := []struct {
		name    string
		d       *dataset.Dataset
		factory ModelFactory
	}{
		{"GCN", reddit, gcnFactory(reddit)},
		{"MAGNN", imdb, func(rng *tensor.RNG) *nau.Model {
			return models.NewMAGNN(imdb.FeatureDim(), 8, imdb.NumClasses, imdb.Metapaths, models.MAGNNConfig{MaxInstances: 4}, rng)
		}},
	}
	for _, c := range cases {
		for _, k := range []int{2, 3} {
			for _, pipeline := range []bool{true, false} {
				conc, err := Train(Config{NumWorkers: k, Pipeline: pipeline, Epochs: 1, Seed: 4}, c.d, c.factory)
				if err != nil {
					t.Fatal(err)
				}
				sim, err := simulateEpoch(c.d, c.factory, SimConfig{NumWorkers: k, Pipeline: pipeline, Seed: 4})
				if err != nil {
					t.Fatal(err)
				}
				want := conc.Losses[0]
				if rel := math.Abs(float64(sim.Loss-want)) / math.Abs(float64(want)); rel > 1e-6 {
					t.Errorf("%s k=%d pipeline=%v: sim loss %v vs concurrent %v (relative %.2g)", c.name, k, pipeline, sim.Loss, want, rel)
				}
				for rank, bd := range conc.PerWorker {
					got := bd.RecvBytes(metrics.ClassFeatures) + bd.RecvBytes(metrics.ClassPartials)
					if sim.PerWorker[rank].BytesIn != got {
						t.Errorf("%s k=%d pipeline=%v rank %d: sim models %d bytes in, the runtime received %d",
							c.name, k, pipeline, rank, sim.PerWorker[rank].BytesIn, got)
					}
				}
			}
		}
	}
}

func TestSimPipelineVsRawSameLoss(t *testing.T) {
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 5})
	a, err := simulateEpoch(d, gcnFactory(d), SimConfig{NumWorkers: 4, Pipeline: true, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := simulateEpoch(d, gcnFactory(d), SimConfig{NumWorkers: 4, Pipeline: false, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	diff := a.Loss - b.Loss
	if diff > 1e-4 || diff < -1e-4 {
		t.Fatalf("pipeline %v vs raw %v", a.Loss, b.Loss)
	}
}

func TestSimMAGNNRuns(t *testing.T) {
	d := dataset.IMDBLike(dataset.Config{Scale: 0.04, Seed: 7})
	factory := func(rng *tensor.RNG) *nau.Model {
		return models.NewMAGNN(d.FeatureDim(), 8, d.NumClasses, d.Metapaths, models.MAGNNConfig{MaxInstances: 4}, rng)
	}
	sim, err := NewSimulation(d, factory, SimConfig{NumWorkers: 4, Pipeline: true, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sim.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	if r1.PerWorker[0].Selection == 0 {
		t.Fatal("MAGNN must spend selection time in epoch 1")
	}
	r2, err := sim.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	if r2.PerWorker[0].Selection != 0 {
		t.Fatal("MAGNN HDGs are cached forever; epoch 2 must skip selection")
	}
}

func TestSimMultiEpochPinSageReselects(t *testing.T) {
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 9})
	cfg := models.PinSageConfig{NumWalks: 3, Hops: 2, TopK: 3}
	factory := func(rng *tensor.RNG) *nau.Model {
		return models.NewPinSage(d.FeatureDim(), 8, d.NumClasses, cfg, rng)
	}
	sim, err := NewSimulation(d, factory, SimConfig{NumWorkers: 2, Pipeline: true, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sim.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sim.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	if r1.PerWorker[0].Selection == 0 || r2.PerWorker[0].Selection == 0 {
		t.Fatal("PinSage must re-run selection each epoch")
	}
}

func TestSimBadConfig(t *testing.T) {
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 11})
	if _, err := simulateEpoch(d, gcnFactory(d), SimConfig{NumWorkers: 0}); err == nil {
		t.Fatal("zero workers must error")
	}
}
