package cluster

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/rpc"
	"repro/internal/tensor"
)

func gcnFactory(d *dataset.Dataset) ModelFactory {
	return func(rng *tensor.RNG) *nau.Model {
		return models.NewGCN(d.FeatureDim(), 8, d.NumClasses, rng)
	}
}

// pinsageFactory builds a small PinSage under the given cache policy.
func pinsageFactory(d *dataset.Dataset, cache nau.CachePolicy) ModelFactory {
	return func(rng *tensor.RNG) *nau.Model {
		m := models.NewPinSage(d.FeatureDim(), 8, d.NumClasses, models.PinSageConfig{NumWalks: 3, Hops: 2, TopK: 3}, rng)
		m.Cache = cache
		return m
	}
}

// magnnFactory builds a small MAGNN over d's metapaths.
func magnnFactory(d *dataset.Dataset) ModelFactory {
	return func(rng *tensor.RNG) *nau.Model {
		return models.NewMAGNN(d.FeatureDim(), 8, d.NumClasses, d.Metapaths, models.MAGNNConfig{MaxInstances: 4}, rng)
	}
}

func TestDistributedGCNMatchesSingleMachineFirstLoss(t *testing.T) {
	// The first-epoch forward pass is exact in the distributed runtime
	// (features fully synchronised), so the epoch-1 loss must match
	// whole-graph single-machine training up to float accumulation order.
	// At this fixture GCN's masked rows all sit at CrossEntropy's clamp, so
	// any forward that saturates would pass; PinSage and MAGNN do not.
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 1})
	imdb := dataset.IMDBLike(dataset.Config{Scale: 0.04, Seed: 7})
	cases := []struct {
		name    string
		d       *dataset.Dataset
		factory ModelFactory
	}{
		{"GCN", d, gcnFactory(d)},
		{"PinSage", d, pinsageFactory(d, nau.CachePerEpoch)},
		{"MAGNN", imdb, magnnFactory(imdb)},
	}
	for _, c := range cases {
		single := nau.NewTrainerWith(c.factory(tensor.NewRNG(7)), nau.TrainerOptions{
			Graph: c.d.Graph, Features: c.d.Features, Labels: c.d.Labels, TrainMask: c.d.TrainMask, Seed: 7})
		wantLoss, err := single.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 4} {
			for _, pipeline := range []bool{false, true} {
				res, err := Train(Config{NumWorkers: k, Pipeline: pipeline, Epochs: 1, Seed: 7}, c.d, c.factory)
				if err != nil {
					t.Fatalf("%s k=%d pipeline=%v: %v", c.name, k, pipeline, err)
				}
				if !withinRel(res.Losses[0], wantLoss, 1e-6) {
					t.Fatalf("%s k=%d pipeline=%v: loss %v, single-machine %v", c.name, k, pipeline, res.Losses[0], wantLoss)
				}
			}
		}
	}
}

// withinRel reports whether got is want to within tol relative.
func withinRel(got, want float32, tol float64) bool {
	return math.Abs(float64(got-want)) <= tol*math.Abs(float64(want))
}

// TestDistributedMatchesTrainerPerEpoch is the k-rank ≡ single-machine
// oracle, epoch by epoch. One rank is the Trainer: the same program over the
// same rows, its gradient only rescaled by the all-reduce, so every epoch
// agrees to 1e-6. Two and three ranks agree at epoch 0 and part after it:
// the runtime's backward does not send gradients back across partitions
// (EXPERIMENTS.md residual deviation 2), so from the second layer down no
// gradient reaches a row a peer computed. The exact distributed backward
// (ROADMAP item 1 (ii)) turns the second half into equality at every epoch.
func TestDistributedMatchesTrainerPerEpoch(t *testing.T) {
	reddit := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 1})
	dense := dataset.RedditLike(dataset.Config{Scale: 0.03, Seed: 4})
	cases := []struct {
		name    string
		d       *dataset.Dataset
		factory ModelFactory
		seed    uint64
		epochs  int
	}{
		{"PinSage", reddit, pinsageFactory(reddit, nau.CachePerEpoch), 7, 6},
		{"GCN", dense, gcnFactory(dense), 5, 10},
	}
	for _, c := range cases {
		tr := nau.NewTrainerWith(c.factory(tensor.NewRNG(c.seed)), nau.TrainerOptions{
			Graph: c.d.Graph, Features: c.d.Features, Labels: c.d.Labels, TrainMask: c.d.TrainMask, Seed: c.seed})
		var want []float32
		for range c.epochs {
			loss, err := tr.Epoch()
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, loss)
		}
		// A loss at CrossEntropy's clamp (-ln 1e-12) is one every saturated
		// forward agrees on: the run must leave it.
		if want[len(want)-1] > 27 {
			t.Fatalf("%s: single-machine losses %v never leave CrossEntropy's clamp", c.name, want)
		}
		for _, k := range []int{1, 2, 3} {
			res, err := Train(Config{NumWorkers: k, Pipeline: true, Epochs: c.epochs, Seed: c.seed}, c.d, c.factory)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s k=%d: %v, single-machine %v", c.name, k, res.Losses, want)
			drift := 0.0
			for e, got := range res.Losses {
				if (k == 1 || e == 0) && !withinRel(got, want[e], 1e-6) {
					t.Fatalf("%s k=%d epoch %d: loss %v, single-machine %v", c.name, k, e, got, want[e])
				}
				drift = max(drift, math.Abs(float64(got-want[e]))/float64(want[e]))
			}
			if k > 1 && drift < 1e-3 {
				t.Fatalf("%s k=%d: every epoch within %.1e of the single machine — the distributed backward is "+
					"exact now: make this test require equality and delete EXPERIMENTS deviation 2", c.name, k, drift)
			}
		}
	}
}

func TestPipelineOnOffSameLosses(t *testing.T) {
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 2})
	var ref []float32
	for _, pipeline := range []bool{false, true} {
		res, err := Train(Config{NumWorkers: 3, Pipeline: pipeline, Epochs: 3, Seed: 3},
			d, gcnFactory(d))
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res.Losses
			continue
		}
		for i := range ref {
			if diff := math.Abs(float64(res.Losses[i] - ref[i])); diff > 1e-3 {
				t.Fatalf("epoch %d: pipeline loss %v != raw loss %v", i, res.Losses[i], ref[i])
			}
		}
	}
}

func TestDistributedTrainingConverges(t *testing.T) {
	d := dataset.RedditLike(dataset.Config{Scale: 0.03, Seed: 4})
	res, err := Train(Config{NumWorkers: 4, Pipeline: true, Epochs: 10, Seed: 5},
		d, gcnFactory(d))
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Losses[0], res.Losses[len(res.Losses)-1]
	if last >= first {
		t.Fatalf("distributed loss did not decrease: %v -> %v", first, last)
	}
}

func TestDistributedPinSage(t *testing.T) {
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 6})
	cfg := models.PinSageConfig{NumWalks: 3, Hops: 2, TopK: 3}
	factory := func(rng *tensor.RNG) *nau.Model {
		return models.NewPinSage(d.FeatureDim(), 8, d.NumClasses, cfg, rng)
	}
	res, err := Train(Config{NumWorkers: 3, Pipeline: true, Epochs: 4, Seed: 8}, d, factory)
	if err != nil {
		t.Fatal(err)
	}
	if res.Losses[len(res.Losses)-1] >= res.Losses[0] {
		t.Fatalf("PinSage distributed loss did not decrease: %v", res.Losses)
	}
}

func TestDistributedMAGNN(t *testing.T) {
	d := dataset.IMDBLike(dataset.Config{Scale: 0.04, Seed: 9})
	factory := func(rng *tensor.RNG) *nau.Model {
		return models.NewMAGNN(d.FeatureDim(), 8, d.NumClasses, d.Metapaths, models.MAGNNConfig{MaxInstances: 4}, rng)
	}
	res, err := Train(Config{NumWorkers: 4, Pipeline: true, Epochs: 5, Seed: 10}, d, factory)
	if err != nil {
		t.Fatal(err)
	}
	if res.Losses[len(res.Losses)-1] >= res.Losses[0] {
		t.Fatalf("MAGNN distributed loss did not decrease: %v", res.Losses)
	}
}

func TestPinSageSelectionIndependentOfWorkerCount(t *testing.T) {
	// Per-root seeded selection makes the first forward pass identical
	// across worker counts for the same seed. (Later epochs may drift
	// slightly: gradients of cross-partition leaf contributions are
	// dropped, the documented distributed-training approximation.)
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 11})
	cfg := models.PinSageConfig{NumWalks: 3, Hops: 2, TopK: 3}
	factory := func(rng *tensor.RNG) *nau.Model {
		return models.NewPinSage(d.FeatureDim(), 8, d.NumClasses, cfg, rng)
	}
	var ref float32
	for i, k := range []int{1, 2, 4} {
		res, err := Train(Config{NumWorkers: k, Pipeline: true, Epochs: 1, Seed: 12}, d, factory)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res.Losses[0]
			continue
		}
		if diff := math.Abs(float64(res.Losses[0] - ref)); diff > 1e-3 {
			t.Fatalf("k=%d: first loss %v != k=1 loss %v", k, res.Losses[0], ref)
		}
	}
}

func TestADBPartitioningWorks(t *testing.T) {
	d := dataset.FB91Like(dataset.Config{Scale: 0.02, Seed: 13})
	g := d.Graph
	n := g.NumVertices()
	cost := make([]float64, n)
	for v := 0; v < n; v++ {
		deg := float64(g.OutDegree(int32(v)))
		cost[v] = 1 + deg
	}
	p := partition.DefaultADB().Rebalance(g, partition.Hash(n, 3), cost)
	res, err := Train(Config{NumWorkers: 3, Pipeline: true, Epochs: 2, Seed: 14, Partitioning: p},
		d, gcnFactory(d))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != 2 {
		t.Fatalf("losses = %v", res.Losses)
	}
}

func TestTrafficAccounting(t *testing.T) {
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 15})
	res, err := Train(Config{NumWorkers: 2, Pipeline: true, Epochs: 1, Seed: 16},
		d, gcnFactory(d))
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged.MessagesSent.Load() == 0 || res.Merged.BytesSent.Load() == 0 {
		t.Fatal("traffic counters must be populated")
	}
	// Single worker sends no feature messages (only possibly zero): with
	// k=1 there are no peers at all.
	res1, err := Train(Config{NumWorkers: 1, Pipeline: true, Epochs: 1, Seed: 16}, d, gcnFactory(d))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Merged.MessagesSent.Load() != 0 {
		t.Fatalf("k=1 sent %d messages", res1.Merged.MessagesSent.Load())
	}
}

func TestBadConfig(t *testing.T) {
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 17})
	if _, err := Train(Config{NumWorkers: 0}, d, gcnFactory(d)); err == nil {
		t.Fatal("zero workers must error")
	}
	p := partition.Hash(d.Graph.NumVertices(), 3)
	if _, err := Train(Config{NumWorkers: 2, Partitioning: p}, d, gcnFactory(d)); err == nil {
		t.Fatal("partition/worker mismatch must error")
	}
}

func TestTaskCodecRoundTrip(t *testing.T) {
	tasks := []Task{{Dst: 3, Leaves: []int32{1, 2}}, {Dst: 9, Leaves: []int32{7}}}
	got, err := decodeTasks((&rankPlan{wants: [][]Task{tasks}}).request(0).IDs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Dst != 3 || len(got[0].Leaves) != 2 || got[1].Leaves[0] != 7 {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := decodeTasks([]int32{1}); err == nil {
		t.Fatal("truncated tasks must error")
	}
	if _, err := decodeTasks([]int32{1, 5, 2}); err == nil {
		t.Fatal("truncated leaves must error")
	}
}

func TestSplitAdjacency(t *testing.T) {
	// dsts: 2 rows; row 0 sources {0,1,2}, row 1 sources {3}.
	adj := &engine.Adjacency{
		NumDst: 2, NumSrc: 4,
		DstPtr: []int64{0, 3, 4},
		SrcIdx: []int32{0, 1, 2, 3},
	}
	owner := []int32{0, 1, 1, 0}
	// Worker 0 owns vertices 0 (rank 0) and 3 (rank 1).
	localRank := []int32{0, -1, -1, 1}
	plan := newRankPlan(adj, owner, localRank, 0, 2, true)
	local, remote, universe, tasks := plan.local, plan.remote, plan.remoteUniverse, plan.wants
	if local.NumEdges() != 2 { // sources 0 and 3
		t.Fatalf("local edges = %d", local.NumEdges())
	}
	// Local sources are remapped into the compact local universe.
	if local.NumSrc != 2 || local.SrcIdx[0] != 0 || local.SrcIdx[1] != 1 {
		t.Fatalf("local remap wrong: %+v", local.SrcIdx)
	}
	if remote.NumEdges() != 2 { // sources 1 and 2
		t.Fatalf("remote edges = %d", remote.NumEdges())
	}
	if len(universe) != 2 || universe[0] != 1 || universe[1] != 2 {
		t.Fatalf("remote universe = %v", universe)
	}
	if remote.NumSrc != 2 || remote.SrcIdx[0] != 0 || remote.SrcIdx[1] != 1 {
		t.Fatalf("remote remap wrong: %+v", remote.SrcIdx)
	}
	if len(tasks[1]) != 1 || tasks[1][0].Dst != 0 || len(tasks[1][0].Leaves) != 2 {
		t.Fatalf("tasks for peer 1 = %+v", tasks[1])
	}
	if len(tasks[0]) != 0 {
		t.Fatalf("self tasks must be empty: %+v", tasks[0])
	}
}

// TestDutyPayloadPartials drives the partial-sum payload the way a worker
// does: one duty, two aggregations of different widths. The message and its
// sections are the duty's own and are rebuilt in place, so the second payload
// must start every sum from +0 whatever the first left behind.
func TestDutyPayloadPartials(t *testing.T) {
	// Rank 1 owns global vertices 10..12 as local rows 0..2.
	localRank := make([]int32, 13)
	for i := range localRank {
		localRank[i] = -1
	}
	localRank[10], localRank[11], localRank[12] = 0, 1, 2
	req := &rpc.Message{Kind: rpc.KindPlan, From: 0, Dim: 1, IDs: []int32{7, 2, 10, 12, 9, 1, 11}}
	d, err := newDuty(req, localRank, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	wide := d.payload(tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 3, 3))
	if !slices.Equal(wide.Data, []float32{8, 10, 12, 4, 5, 6}) || wide.Dim != 3 {
		t.Fatalf("wide payload: dim %d data %v", wide.Dim, wide.Data)
	}
	m := d.payload(tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2))
	if m != wide {
		t.Fatal("the duty built a second message instead of rebuilding its own")
	}
	if m.Kind != rpc.KindPartials || !slices.Equal(m.IDs, []int32{7, 9}) || !slices.Equal(m.Counts, []int32{2, 1}) {
		t.Fatalf("kind %v ids %v counts %v", m.Kind, m.IDs, m.Counts)
	}
	if !slices.Equal(m.Data, []float32{6, 8, 3, 4}) || m.Dim != 2 {
		t.Fatalf("payload: dim %d data %v", m.Dim, m.Data)
	}
}

func TestMAGNNPipelineModesAgree(t *testing.T) {
	// MAGNN's bottom level prefers raw rows ("when possible" fallback)
	// while small partitions may prefer partials — the negotiated message
	// kinds must still produce identical losses with pipeline on and off.
	d := dataset.IMDBLike(dataset.Config{Scale: 0.04, Seed: 40})
	factory := func(rng *tensor.RNG) *nau.Model {
		return models.NewMAGNN(d.FeatureDim(), 8, d.NumClasses, d.Metapaths, models.MAGNNConfig{MaxInstances: 6}, rng)
	}
	var ref []float32
	for _, pipeline := range []bool{true, false} {
		res, err := Train(Config{NumWorkers: 3, Pipeline: pipeline, Epochs: 2, Seed: 41}, d, factory)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res.Losses
			continue
		}
		for i := range ref {
			if diff := math.Abs(float64(res.Losses[i] - ref[i])); diff > 1e-3 {
				t.Fatalf("epoch %d: pipeline %v vs raw %v", i, res.Losses[i], ref[i])
			}
		}
	}
}

// maxLayer is a GCN layer that reduces its neighbors with max, which the
// distributed hook cannot split into per-owner partial sums.
type maxLayer struct{ *models.GCNLayer }

func (l maxLayer) Aggregation(ctx *nau.Context, feats *nn.Value) *nn.Value {
	return ctx.Aggregate(feats, nau.Max)
}

func TestUnsupportedReduceOpIsAnError(t *testing.T) {
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 50})
	factory := func(rng *tensor.RNG) *nau.Model {
		m := models.NewGCN(d.FeatureDim(), 8, d.NumClasses, rng)
		for i, l := range m.Layers {
			m.Layers[i] = maxLayer{l.(*models.GCNLayer)}
		}
		return m
	}
	_, err := Train(Config{NumWorkers: 2, Pipeline: true, Epochs: 1, Seed: 51}, d, factory)
	if err == nil || !strings.Contains(err.Error(), "supports sum and mean") {
		t.Fatalf("max through the distributed hook: err = %v, want the unsupported-op error", err)
	}
	if _, err := simulateEpoch(d, factory, SimConfig{NumWorkers: 2, Pipeline: true, Seed: 51}); err == nil {
		t.Fatal("max through the simulated hook must be an error")
	}
}

// TestSingleRankForwardIsTrainerPredict is the cluster leg of the
// cross-driver parity chain (internal/serve's bit-identical tests hold the
// store.Forward and serving legs against the same Trainer.Predict): a k=1
// worker's forward pass — the partition that is the whole graph, behind the
// distributed hook — produces Trainer.Predict's logits bit for bit, PinSage's
// included: both select epoch 0 by the one seed formula.
func TestSingleRankForwardIsTrainerPredict(t *testing.T) {
	reddit := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 52})
	imdb := dataset.IMDBLike(dataset.Config{Scale: 0.04, Seed: 53})
	cases := []struct {
		name    string
		d       *dataset.Dataset
		factory ModelFactory
	}{
		{"GCN", reddit, gcnFactory(reddit)},
		{"MAGNN", imdb, func(rng *tensor.RNG) *nau.Model {
			return models.NewMAGNN(imdb.FeatureDim(), 8, imdb.NumClasses, imdb.Metapaths, models.MAGNNConfig{MaxInstances: 4}, rng)
		}},
		{"PinSage", reddit, pinsageFactory(reddit, nau.CachePerEpoch)},
	}
	for _, c := range cases {
		tr := nau.NewTrainerWith(c.factory(tensor.NewRNG(54)), nau.TrainerOptions{
			Graph: c.d.Graph, Features: c.d.Features, Labels: c.d.Labels, TrainMask: c.d.TrainMask, Seed: 54})
		want, err := tr.Predict()
		if err != nil {
			t.Fatal(err)
		}
		netw := rpc.NewLoopbackNetwork(1)
		w, err := newWorker(0, Config{NumWorkers: 1, Pipeline: true, Seed: 54}, c.d, c.factory, netw.Transport(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.prog.Select(); err != nil {
			t.Fatal(err)
		}
		got, err := w.prog.Forward(false, nil)
		netw.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Data.Data(), want.Data()) {
			t.Errorf("%s: k=1 worker forward differs from Trainer.Predict", c.name)
		}
	}
}

// TestTrainerHDGsAreSingleRankHDGs: the Trainer seeds selection like a k = 1
// rank — root v of epoch e by VertexSeed(EpochSeed(seed, e), v) — so a
// PinSage Trainer and a k = 1 worker hold the same HDG arrays epoch by epoch,
// whether the Trainer selected its HDG ahead or not.
func TestTrainerHDGsAreSingleRankHDGs(t *testing.T) {
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 55})
	factory := pinsageFactory(d, nau.CachePerEpoch)
	tr := nau.NewTrainerWith(factory(tensor.NewRNG(56)), nau.TrainerOptions{
		Graph: d.Graph, Features: d.Features, Labels: d.Labels, TrainMask: d.TrainMask, Seed: 56})
	r := newRanks(t, Config{NumWorkers: 1, Pipeline: true, Seed: 56}, d, factory)
	for e := range 4 {
		if _, err := tr.Epoch(); err != nil {
			t.Fatal(err)
		}
		r.epoch()
		got, want := r.workers[0].prog.Ctx.HDG, tr.HDG()
		if !slices.Equal(got.Roots, want.Roots) || !slices.Equal(got.InstOffset, want.InstOffset) ||
			!slices.Equal(got.LeafOffset, want.LeafOffset) || !slices.Equal(got.LeafIDs, want.LeafIDs) {
			t.Fatalf("epoch %d: the k = 1 worker's HDG differs from the Trainer's", e)
		}
	}
}

// TestTrainIsRunWorkerOnLoopback: Train is k RunWorkers on a fresh loopback
// mesh. Rank 0's losses are equal bit for bit, and every rank sends and
// receives the same bytes in every message class, the startup barrier's
// included — for whole-graph GCN and mini-batch PinSage at k = 2 and 3.
func TestTrainIsRunWorkerOnLoopback(t *testing.T) {
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 57})
	modes := []struct {
		name    string
		mb      *MiniBatchConfig
		factory ModelFactory
	}{
		{"whole-graph", nil, gcnFactory(d)},
		{"mini-batch", &MiniBatchConfig{BatchSize: 48, PrefetchDepth: 2, SamplerWorkers: 2}, pinsageFactory(d, nau.CachePerEpoch)},
	}
	for _, mode := range modes {
		for _, k := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/k=%d", mode.name, k), func(t *testing.T) {
				cfg := Config{NumWorkers: k, Pipeline: true, Epochs: 3, Seed: 58,
					RecvTimeout: 30 * time.Second, MiniBatch: mode.mb}
				res, err := Train(cfg, d, mode.factory)
				if err != nil {
					t.Fatal(err)
				}
				transports := loopbackTransports(t, k)
				losses := make([][]float32, k)
				bds := make([]*metrics.Breakdown, k)
				errs := make([]error, k)
				var wg sync.WaitGroup
				for rank := range k {
					wg.Add(1)
					go func() {
						defer wg.Done()
						losses[rank], bds[rank], errs[rank] = RunWorker(cfg, d, mode.factory, transports[rank])
					}()
				}
				wg.Wait()
				for rank := range k {
					if errs[rank] != nil {
						t.Fatalf("RunWorker rank %d: %v", rank, errs[rank])
					}
					if !slices.EqualFunc(losses[rank], res.Losses, func(a, b float32) bool {
						return math.Float32bits(a) == math.Float32bits(b)
					}) {
						t.Fatalf("rank %d: RunWorker losses %v, Train %v", rank, losses[rank], res.Losses)
					}
					for c := metrics.MsgClass(0); c < metrics.NumMsgClasses; c++ {
						got, want := bds[rank], res.PerWorker[rank]
						if got.SentBytes(c) != want.SentBytes(c) || got.RecvBytes(c) != want.RecvBytes(c) {
							t.Errorf("rank %d %v: RunWorker sent/received %d/%d bytes, Train %d/%d",
								rank, c, got.SentBytes(c), got.RecvBytes(c), want.SentBytes(c), want.RecvBytes(c))
						}
					}
				}
			})
		}
	}
}
