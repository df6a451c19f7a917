package flexgraph

// End-to-end training-step benchmarks, each at its workload's shape:
// BenchmarkTrainStepGCN, one DNFA epoch at the train_gcn_dense shape (Reddit
// x 1.5, hidden 64): fused bottom aggregation, the dense products and the
// elementwise loops between them, BenchmarkTrainStepMAGNN, the INHA one at
// the train_magnn_hetero workload's shape (IMDB x 0.7, hidden 64, 20
// instances per metapath): the epoch the upper HDG levels dominate, and
// BenchmarkTrainStepPinSage, the INFA one at the train_pinsage_skew shape
// (Twitter x 1, features 16, hidden 16): the epoch whose neighbor selection
// re-runs over every vertex. allocs/op is the headline number — steady-state
// epochs recycle their aggregation outputs, gradient buffers and (PinSage)
// HDG storage instead of churning the GC.
//
//	go test -run xxx -bench TrainStep -benchmem .
//
// Results are recorded in BENCH_kernels.json (the GCN row's "seed" column is
// the deleted all-levers-off configuration, kept as history).

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/nau"
	"repro/internal/tensor"
)

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
	d := dataset.RedditLike(dataset.Config{Scale: 1.5, Seed: 1})
	model := models.NewGCN(d.FeatureDim(), 64, d.NumClasses, tensor.NewRNG(3))
	tr := nau.NewTrainerWith(model,
		nau.TrainerOptions{Graph: d.Graph, Features: d.Features, Labels: d.Labels, TrainMask: d.TrainMask, Seed: 1})
	benchEpochs(b, tr, 1)
}

func BenchmarkTrainStepMAGNN(b *testing.B) {
	d := dataset.IMDBLike(dataset.Config{Scale: 0.7, Seed: 1})
	model := models.NewMAGNN(d.FeatureDim(), 64, d.NumClasses, d.Metapaths,
		models.MAGNNConfig{MaxInstances: 20}, tensor.NewRNG(3))
	tr := nau.NewTrainerWith(model,
		nau.TrainerOptions{Graph: d.Graph, Features: d.Features, Labels: d.Labels, TrainMask: d.TrainMask, Seed: 1})
	benchEpochs(b, tr, 3)
}

func BenchmarkTrainStepPinSage(b *testing.B) {
	d := dataset.TwitterLike(dataset.Config{Scale: 1, FeatureDim: 16, Seed: 1})
	model := models.NewPinSage(d.FeatureDim(), 16, d.NumClasses, models.DefaultPinSageConfig(), tensor.NewRNG(3))
	tr := nau.NewTrainerWith(model,
		nau.TrainerOptions{Graph: d.Graph, Features: d.Features, Labels: d.Labels, TrainMask: d.TrainMask, Seed: 1})
	benchEpochs(b, tr, 3)
}
