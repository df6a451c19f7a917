package flexgraph

// End-to-end training-step benchmark for the kernel overhaul: one GCN epoch
// on a small Reddit-shaped dataset, run once with every kernel lever off
// (the seed configuration: goroutine-per-call dispatch, plain allocations,
// count-split fused ranges) and once with the
// levers on. allocs/op is the headline number — with pooling on, steady-state
// epochs recycle their aggregation outputs and gradient buffers instead of
// churning the GC. BenchmarkTrainStepMAGNN is the INHA counterpart at the
// train_magnn_hetero workload's shape (IMDB x 0.7, hidden 64, 20 instances
// per metapath): the epoch the upper HDG levels dominate.
//
//	go test -run xxx -bench TrainStep -benchmem .
//
// Results are recorded in BENCH_kernels.json.

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/nau"
	"repro/internal/tensor"
)

func setKernelLevers(on bool) {
	tensor.SetWorkerPool(on)
	tensor.SetBufferPooling(on)
	engine.SetEdgeBalancedSplit(on)
}

func benchTrainStep(b *testing.B, on bool) {
	setKernelLevers(on)
	defer setKernelLevers(true)
	d := dataset.RedditLike(dataset.Config{Scale: 0.3, Seed: 1})
	model := models.NewGCN(d.FeatureDim(), 16, d.NumClasses, tensor.NewRNG(3))
	tr := nau.NewTrainerWith(model,
		nau.TrainerOptions{Graph: d.Graph, Features: d.Features, Labels: d.Labels, TrainMask: d.TrainMask, Seed: 1})
	benchEpochs(b, tr, 1)
}

// benchEpochs times steady-state epochs of tr under StrategyHA after warmup
// untimed ones (HDG/adjacency caches, metapath search, buffer pool).
func benchEpochs(b *testing.B, tr *nau.Trainer, warmup int) {
	tr.Engine = engine.New(engine.StrategyHA)
	for i := 0; i < warmup; i++ {
		if _, err := tr.Epoch(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Epoch(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainStepGCN(b *testing.B) {
	b.Run("seed-levers", func(b *testing.B) { benchTrainStep(b, false) })
	b.Run("opt-levers", func(b *testing.B) { benchTrainStep(b, true) })
}

func BenchmarkTrainStepMAGNN(b *testing.B) {
	d := dataset.IMDBLike(dataset.Config{Scale: 0.7, Seed: 1})
	model := models.NewMAGNN(d.FeatureDim(), 64, d.NumClasses, d.Metapaths,
		models.MAGNNConfig{MaxInstances: 20}, tensor.NewRNG(3))
	tr := nau.NewTrainerWith(model,
		nau.TrainerOptions{Graph: d.Graph, Features: d.Features, Labels: d.Labels, TrainMask: d.TrainMask, Seed: 1})
	benchEpochs(b, tr, 3)
}
