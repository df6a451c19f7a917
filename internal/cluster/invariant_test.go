package cluster

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/rpc"
	"repro/internal/tensor"
)

// ranks is k loopback workers driven one epoch at a time, the way Train
// drives them, so a test can look at (or reach into) every rank in between.
type ranks struct {
	t       *testing.T
	workers []*worker
}

func newRanks(t *testing.T, cfg Config, d *dataset.Dataset, factory ModelFactory) *ranks {
	t.Helper()
	netw := rpc.NewLoopbackNetwork(cfg.NumWorkers)
	t.Cleanup(netw.Close)
	r := &ranks{t: t}
	for rank := 0; rank < cfg.NumWorkers; rank++ {
		w, err := newWorker(rank, cfg, d, factory, netw.Transport(rank))
		if err != nil {
			t.Fatal(err)
		}
		r.workers = append(r.workers, w)
	}
	return r
}

// epoch runs one epoch on every rank and returns the global loss.
func (r *ranks) epoch() float32 {
	r.t.Helper()
	losses := make([]float32, len(r.workers))
	errs := make([]error, len(r.workers))
	var wg sync.WaitGroup
	for rank, w := range r.workers {
		wg.Add(1)
		go func(rank int, w *worker) {
			defer wg.Done()
			if losses[rank], errs[rank] = w.runEpoch(); errs[rank] != nil {
				w.abortPeers(errs[rank])
			}
		}(rank, w)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			r.t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return losses[0]
}

// forget makes every rank's next epoch a cold one: both calls drop what the
// context kept of the first layer's bottom level (for an HDG model the level
// itself is rebuilt, so its plan is exchanged again too).
func (r *ranks) forget() {
	for _, w := range r.workers {
		w.prog.Ctx.SetGraphAdjacency(w.prog.Ctx.GraphAdjacency())
		w.prog.Ctx.InvalidateHDG(w.prog.Ctx.HDG)
	}
}

// levelBytes is the feature + partial bytes a rank has sent and received.
func levelBytes(w *worker) (sent, recv int64) {
	bd := w.breakdown
	return bd.SentBytes(metrics.ClassFeatures) + bd.SentBytes(metrics.ClassPartials),
		bd.RecvBytes(metrics.ClassFeatures) + bd.RecvBytes(metrics.ClassPartials)
}

type invariantCase struct {
	name    string
	d       *dataset.Dataset
	factory ModelFactory
}

func invariantCases() []invariantCase {
	reddit := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 3})
	imdb := dataset.IMDBLike(dataset.Config{Scale: 0.04, Seed: 7})
	return []invariantCase{
		{"GCN", reddit, gcnFactory(reddit)},
		{"MAGNN", imdb, func(rng *tensor.RNG) *nau.Model {
			return models.NewMAGNN(imdb.FeatureDim(), 8, imdb.NumClasses, imdb.Metapaths, models.MAGNNConfig{MaxInstances: 4}, rng)
		}},
	}
}

// TestClusterKeptAggregateMatchesRecompute: a cluster that keeps the first
// layer's bottom aggregate after its first epoch trains to the same losses,
// bit for bit, as one made to recompute and re-exchange it every epoch.
func TestClusterKeptAggregateMatchesRecompute(t *testing.T) {
	const epochs = 4
	for _, c := range invariantCases() {
		for _, k := range []int{1, 2, 3} {
			for _, pipeline := range []bool{true, false} {
				cfg := Config{NumWorkers: k, Pipeline: pipeline, Seed: 4}
				warm, cold := newRanks(t, cfg, c.d, c.factory), newRanks(t, cfg, c.d, c.factory)
				for e := 1; e <= epochs; e++ {
					cold.forget()
					got, want := warm.epoch(), cold.epoch()
					if math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("%s k=%d pipeline=%v epoch %d: loss %v with the kept aggregate, %v recomputed",
							c.name, k, pipeline, e, got, want)
					}
				}
				// The comparison means something only if the cold side did
				// exchange the level every epoch and the warm side did not.
				for rank := 0; rank < k && k > 1; rank++ {
					warmSent, _ := levelBytes(warm.workers[rank])
					coldSent, _ := levelBytes(cold.workers[rank])
					if warmSent >= coldSent {
						t.Fatalf("%s k=%d pipeline=%v rank %d: kept side sent %d bytes, recomputing side %d",
							c.name, k, pipeline, rank, warmSent, coldSent)
					}
				}
			}
		}
	}
}

// TestClusterEpochBytesDropByLayerZeroShare: from the second epoch on, every
// rank ships exactly the payloads of the layers above the first — epoch 1's
// feature + partial bytes minus one payload of the input width per duty —
// and the simulator, which runs the same pieces, models exactly the bytes
// each rank receives, cold epoch and warm.
func TestClusterEpochBytesDropByLayerZeroShare(t *testing.T) {
	header := (&rpc.Message{}).NumBytes()
	for _, c := range invariantCases() {
		for _, k := range []int{2, 3} {
			for _, pipeline := range []bool{true, false} {
				name := fmt.Sprintf("%s k=%d pipeline=%v", c.name, k, pipeline)
				cfg := Config{NumWorkers: k, Pipeline: pipeline, Seed: 4}
				r := newRanks(t, cfg, c.d, c.factory)
				sim, err := NewSimulation(c.d, c.factory, SimConfig{NumWorkers: k, Pipeline: pipeline, Seed: 4})
				if err != nil {
					t.Fatal(err)
				}
				sent := make([][]int64, k) // [rank][epoch] bytes sent during the epoch
				var sentMark, recvMark [8]int64
				for e := 0; e < 4; e++ {
					r.epoch()
					var modeled *SimResult
					if e < 2 {
						if modeled, err = sim.Epoch(); err != nil {
							t.Fatal(err)
						}
					}
					for rank, w := range r.workers {
						s, rv := levelBytes(w)
						sent[rank] = append(sent[rank], s-sentMark[rank])
						if modeled != nil && modeled.PerWorker[rank].BytesIn != rv-recvMark[rank] {
							t.Errorf("%s rank %d epoch %d: simulator models %d bytes in, the runtime received %d",
								name, rank, e+1, modeled.PerWorker[rank].BytesIn, rv-recvMark[rank])
						}
						sentMark[rank], recvMark[rank] = s, rv
					}
				}
				for rank, w := range r.workers {
					if len(w.plans) != 1 {
						t.Fatalf("%s rank %d: %d plans, want the one bottom level's", name, rank, len(w.plans))
					}
					// One payload of the input width per duty: the header, the
					// fixed ID/count sections, and a row of features per ID.
					var layer0 int64
					for _, x := range w.plans {
						for _, dt := range x.duties {
							if dt != nil {
								layer0 += header + 4*int64(len(dt.msg.IDs)+len(dt.msg.Counts)+len(dt.msg.IDs)*c.d.FeatureDim())
							}
						}
					}
					if layer0 == 0 || sent[rank][0] <= layer0 {
						t.Fatalf("%s rank %d: epoch 1 sent %d bytes, layer 0's share is %d", name, rank, sent[rank][0], layer0)
					}
					for e := 1; e < 4; e++ {
						if sent[rank][e] != sent[rank][0]-layer0 {
							t.Errorf("%s rank %d epoch %d: sent %d feature+partial bytes, want epoch 1's %d minus layer 0's %d",
								name, rank, e+1, sent[rank][e], sent[rank][0], layer0)
						}
					}
				}
			}
		}
	}
}

// combineByAdd is the fold as every version before the in-place one wrote
// it: the payloads summed into a zero-filled remainder in sender-rank order,
// the remainder added to the local sum by nn.Add, a mean completed by
// multiplying with a materialised [rows, dim] scale. The oracle combine is
// held to.
func combineByAdd(p *rankPlan, localSum *nn.Value, msgs []*rpc.Message, op tensor.ReduceOp) *nn.Value {
	dim := localSum.Data.Cols()
	var remote *tensor.Tensor
	if p.usePartials {
		remote = tensor.New(p.local.NumDst, dim)
		rd := remote.Data()
		for _, m := range msgs {
			for i, dst := range m.IDs {
				tensor.AddUnrolled(rd[int(dst)*dim:int(dst+1)*dim], m.Data[i*dim:(i+1)*dim])
			}
		}
	} else {
		buffer := tensor.New(p.remote.NumSrc, dim)
		for _, m := range msgs {
			for i, v := range m.IDs {
				copy(buffer.Row(int(p.remoteIndex[v])), m.Data[i*dim:(i+1)*dim])
			}
		}
		remote = engine.FusedAggregate(p.remote, nn.Constant(buffer), tensor.ReduceSum).Data
	}
	out := nn.Add(localSum, nn.Constant(remote))
	if op == tensor.ReduceMean {
		scale := tensor.New(out.Data.Rows(), dim)
		for d, inv := range p.degInv.Data.Data() {
			row := scale.Row(d)
			for j := range row {
				row[j] = inv
			}
		}
		out = nn.Mul(out, nn.Constant(scale))
	}
	return out
}

// TestCombineMatchesAddOracle holds the in-place fold — one peer straight
// onto the local sum, several through the pooled scratch, raw rows through
// the remote level — to combineByAdd bit for bit, value and gradient, for sum
// and mean.
func TestCombineMatchesAddOracle(t *testing.T) {
	const n, dim = 60, 5
	rng := tensor.NewRNG(11)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for e := 0; e < v%7; e++ { // some destinations stay empty, some have one edge
			b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(v))
		}
	}
	g := b.Build()
	for _, k := range []int{2, 3} {
		owner := make([]int32, n)
		roots := make([][]graph.VertexID, k)
		for v := range owner {
			owner[v] = int32(v % k)
			roots[v%k] = append(roots[v%k], graph.VertexID(v))
		}
		localRank := make([][]int32, k)
		feats := make([]*tensor.Tensor, k)
		for q := range roots {
			localRank[q] = buildLocalRank(n, roots[q])
			feats[q] = tensor.RandN(rng, 1, len(roots[q]), dim)
		}
		for _, partials := range []bool{true, false} {
			for _, op := range []tensor.ReduceOp{tensor.ReduceSum, tensor.ReduceMean} {
				p := newRankPlan(localGraphAdjacency(g, roots[0]), owner, localRank[0], 0, k, true)
				p.usePartials = partials
				var msgs []*rpc.Message
				for q := 1; q < k; q++ {
					req := p.request(q)
					req.From = 0
					dt, err := newDuty(req, localRank[q], q, true)
					if err != nil {
						t.Fatal(err)
					}
					m := dt.payload(feats[q])
					m.From = int32(q)
					msgs = append(msgs, m)
				}
				upstream := nn.Constant(tensor.RandN(rng, 1, len(roots[0]), dim))
				run := func(fold func(localSum *nn.Value) *nn.Value) (*tensor.Tensor, *tensor.Tensor) {
					x := nn.Param(feats[0])
					out := fold(p.localSum(x))
					nn.MeanAll(nn.Mul(out, upstream)).Backward()
					return out.Data.Clone(), x.Grad
				}
				wantOut, wantGrad := run(func(ls *nn.Value) *nn.Value { return combineByAdd(p, ls, msgs, op) })
				gotOut, gotGrad := run(func(ls *nn.Value) *nn.Value {
					out, err := p.combine(ls, msgs, op)
					if err != nil {
						t.Fatal(err)
					}
					return out
				})
				for i, w := range wantOut.Data() {
					if math.Float32bits(gotOut.Data()[i]) != math.Float32bits(w) {
						t.Fatalf("k=%d partials=%v %v: value %d is %v, the add-based fold gives %v", k, partials, op, i, gotOut.Data()[i], w)
					}
				}
				for i, w := range wantGrad.Data() {
					if math.Float32bits(gotGrad.Data()[i]) != math.Float32bits(w) {
						t.Fatalf("k=%d partials=%v %v: gradient %d is %v, the add-based fold gives %v", k, partials, op, i, gotGrad.Data()[i], w)
					}
				}
			}
		}
	}
}

// TestCombineRejectsMalformedPayload: a payload whose sections disagree, or
// that names a row this rank does not have, is a typed failure, not a slice
// panic in the middle of an epoch.
func TestCombineRejectsMalformedPayload(t *testing.T) {
	adj := &engine.Adjacency{NumDst: 2, NumSrc: 4, DstPtr: []int64{0, 1, 2}, SrcIdx: []int32{0, 1}}
	p := newRankPlan(adj, []int32{0, 1, 0, 1}, []int32{0, -1, 1, -1}, 0, 2, true)
	p.usePartials = true
	local := func() *nn.Value { return nn.Constant(tensor.New(2, 3)) }
	for name, m := range map[string]*rpc.Message{
		"short data":   {Kind: rpc.KindPartials, From: 1, IDs: []int32{1}, Counts: []int32{1}, Data: make([]float32, 2)},
		"row too high": {Kind: rpc.KindPartials, From: 1, IDs: []int32{2}, Counts: []int32{1}, Data: make([]float32, 3)},
		"negative row": {Kind: rpc.KindPartials, From: 1, IDs: []int32{-1}, Counts: []int32{1}, Data: make([]float32, 3)},
	} {
		if _, err := p.combine(local(), []*rpc.Message{m}, tensor.ReduceSum); err == nil {
			t.Errorf("%s: combine accepted it", name)
		}
	}
}

// TestClusterSteadyStateEpochAllocs: a warm k = 2 loopback GCN epoch — both
// ranks, exchange, all-reduce and optimizer step — allocates a few hundred
// small objects (the tape, the fence bookkeeping, one goroutine and channel
// per exchange, the balance report) and nothing proportional to the
// partition: the layer payloads are rebuilt in the duties' buffers, received
// into recycled messages, folded into the local sum's own buffer, and every
// other [rows, dim] buffer comes from the tensor pool. The gradient
// all-reduce's ring chunks are received into recycled messages too (a pool of
// their own, so they never take a layer payload's section). The bound is the
// same at 1200 and at 6000 vertices. Measured on one P with the collector off
// ~259 objects / ~10 KB at both sizes; sync.Pool adds 2…4 objects after a
// collection, and the budget leaves room for that.
func TestClusterSteadyStateEpochAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const maxObjects, maxBytes = 400, 32 << 10
	for _, scale := range []float64{0.3, 1.5} {
		d := dataset.RedditLike(dataset.Config{Scale: scale, Seed: 1})
		factory := func(rng *tensor.RNG) *nau.Model { return models.NewGCN(d.FeatureDim(), 64, d.NumClasses, rng) }
		r := newRanks(t, Config{NumWorkers: 2, Pipeline: true, Seed: 1}, d, factory)
		objects, bytes := steadyEpochAllocs(r)
		t.Logf("V=%d: %.0f objects, %.0f bytes per epoch", d.Graph.NumVertices(), objects, bytes)
		if raceEnabled {
			continue // sync.Pool drops a quarter of its Puts under the race detector
		}
		if objects > maxObjects || bytes > maxBytes {
			t.Fatalf("V=%d: steady-state cluster epoch allocates %.0f objects / %.0f bytes, budget %d / %d",
				d.Graph.NumVertices(), objects, bytes, maxObjects, maxBytes)
		}
	}
}

// steadyEpochAllocs warms r up for three epochs, then returns the median
// objects and bytes one epoch allocates over seven. Two ranks run
// concurrently, so an epoch in which they happen to want one more buffer at
// the same moment than any epoch before it allocates that buffer once (it is
// pooled from then on) — a high-water event, not the steady state.
func steadyEpochAllocs(r *ranks) (objects, bytes float64) {
	for i := 0; i < 3; i++ {
		r.epoch()
	}
	const runs = 7
	objectRuns, byteRuns := make([]float64, runs), make([]float64, runs)
	for i := range objectRuns {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.epoch()
		runtime.ReadMemStats(&after)
		objectRuns[i] = float64(after.Mallocs - before.Mallocs)
		byteRuns[i] = float64(after.TotalAlloc - before.TotalAlloc)
	}
	slices.Sort(objectRuns)
	slices.Sort(byteRuns)
	return objectRuns[runs/2], byteRuns[runs/2]
}

// pinsageCase is whole-graph PinSage over TwitterLike, the cluster's
// per-epoch selection.
func pinsageCase(t *testing.T, scale float64) (*dataset.Dataset, ModelFactory) {
	t.Helper()
	d, err := dataset.ByName("twitter", dataset.Config{Scale: scale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d, func(rng *tensor.RNG) *nau.Model {
		return models.NewPinSage(d.FeatureDim(), 16, d.NumClasses, models.DefaultPinSageConfig(), rng)
	}
}

// TestClusterPinSageEpochAllocs reports what a warm k = 2 whole-graph PinSage
// epoch allocates. Selection runs in each rank's nau.Selection and allocates
// nothing that grows with the graph; the plan exchange over the new level
// still builds a plan and duties, O(edges), every epoch, so nothing is gated.
func TestClusterPinSageEpochAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, scale := range []float64{0.1, 0.4} {
		d, factory := pinsageCase(t, scale)
		r := newRanks(t, Config{NumWorkers: 2, Pipeline: true, Seed: 1}, d, factory)
		objects, bytes := steadyEpochAllocs(r)
		t.Logf("V=%d: %.0f objects, %.0f bytes per epoch", d.Graph.NumVertices(), objects, bytes)
	}
}

// TestClusterReselectionDropsStalePlans: a CachePerEpoch model's flat level is
// refilled in the storage of the one two selections old, so the same
// *engine.Adjacency comes back holding another level, and a plan cached under
// it would fold the wrong rows. k = 2 whole-graph PinSage ranks, and a
// simulation of them, must train to the same losses, bit for bit, as twins
// whose selection state is dropped before every epoch, which never recycle a
// level.
func TestClusterReselectionDropsStalePlans(t *testing.T) {
	d, factory := pinsageCase(t, 0.05)
	cfg := Config{NumWorkers: 2, Pipeline: true, Seed: 5}
	warm, cold := newRanks(t, cfg, d, factory), newRanks(t, cfg, d, factory)
	newSim := func() *Simulation {
		s, err := NewSimulation(d, factory, SimConfig{NumWorkers: 2, Pipeline: true, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	warmSim, coldSim := newSim(), newSim()
	for e := 1; e <= 5; e++ {
		for _, w := range cold.workers {
			w.prog.Sel = nau.Selection{}
		}
		for rank := range coldSim.ranks {
			coldSim.ranks[rank].prog.Sel = nau.Selection{}
		}
		if got, want := warm.epoch(), cold.epoch(); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("epoch %d: loss %v on recycled levels, %v on fresh ones", e, got, want)
		}
		got, err := warmSim.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		want, err := coldSim.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float32bits(got.Loss) != math.Float32bits(want.Loss) {
			t.Fatalf("epoch %d: simulated loss %v on recycled levels, %v on fresh ones", e, got.Loss, want.Loss)
		}
	}
}

// TestClusterMiniBatchSteadyStateEpochAllocs is the mini-batch twin of
// TestClusterSteadyStateEpochAllocs: warm k = 2 loopback PinSage epochs over
// the prefetching sampler (TwitterLike x0.2, 2400 vertices, depth 2). What an
// epoch allocates must follow its distinct selections and the parameters, not
// batches × frontier: the sampler asks the store once per vertex and epoch
// (the records the UDF makes for it are the bulk of the bytes), the trainer
// hands every batch back, and the next batch is rebuilt in its plans, rows,
// feature buffer and flat levels. Halving the batch size doubles the batches
// and frontiers but not the distinct selections, so the bytes barely move.
// Measured on one P with the collector off: batch 64 ~4.08 MB / ~13.9 k
// objects, batch 128 ~3.88 MB / ~11.0 k objects per epoch (before the memo
// and the recycling: 27.5 MB and 19.8 MB — bytes in proportion to the
// batches). The objects still grow with the batches: each has its own tape.
func TestClusterMiniBatchSteadyStateEpochAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const maxBytes, maxGrowth = 6 << 20, 1.15
	d, err := dataset.ByName("twitter", dataset.Config{Scale: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	factory := func(rng *tensor.RNG) *nau.Model {
		return models.NewPinSage(d.FeatureDim(), 16, d.NumClasses, models.DefaultPinSageConfig(), rng)
	}
	var perBatchSize []float64
	for _, bs := range []int{64, 128} {
		r := newRanks(t, Config{NumWorkers: 2, Pipeline: true, Seed: 1,
			MiniBatch: &MiniBatchConfig{BatchSize: bs, PrefetchDepth: 2, SamplerWorkers: 1}}, d, factory)
		objects, bytes := steadyEpochAllocs(r)
		t.Logf("batch %d: %.0f objects, %.0f bytes per epoch", bs, objects, bytes)
		if !raceEnabled && bytes > maxBytes {
			t.Fatalf("batch %d: steady-state mini-batch epoch allocates %.0f bytes, budget %d", bs, bytes, maxBytes)
		}
		perBatchSize = append(perBatchSize, bytes)
	}
	if g := perBatchSize[0] / perBatchSize[1]; !raceEnabled && g > maxGrowth {
		t.Fatalf("halving the batch size multiplies the epoch's bytes by %.2f (budget %.2f): "+
			"they follow the batches, not the distinct selections", g, maxGrowth)
	}
}
