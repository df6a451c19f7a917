package baseline

import (
	"context"
	"sort"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/store"
	"repro/internal/tensor"
)

// MiniBatch emulates the mini-batch training strategy of Euler and DistDGL
// (§7.1, §8): for each batch of target vertices it gathers their *full*
// neighborhoods within 2 hops, converts those vertices and their
// relationships into a new subgraph, and trains on the subgraph. On dense
// graphs and graphs with power-law degree skew the 2-hop expansion
// approaches the whole graph per batch, which is the "tremendous
// computation and memory overhead" of §7.1.
//
// Each executor expands its own batches and reads their rows through an
// in-memory store.Local: GCN expands the batch 2 out-hops (expandKHop),
// induces the subgraph on the expansion and gathers its rows; PinSage runs
// one store.Expand of the batch through its system's walk selector. Either
// way it behaves exactly like the historical fused implementation.
//
// The two systems differ where the paper says they differ:
//   - Euler's sampling engine runs walks in parallel (fast PinSage) but its
//     per-batch subgraph conversion duplicates adjacency per layer (the
//     OOM entries on FB91/Twitter);
//   - DistDGL uses DGL's walk implementation (slow PinSage, §7.1 "DistDGL
//     reports almost the same performance with DGL") and a larger batch.
type MiniBatch struct {
	// System is "Euler" or "DistDGL".
	System string
	// BatchSize overrides the system default when positive.
	BatchSize int
}

// NewEuler returns the Euler-flavoured mini-batch executor.
func NewEuler() *MiniBatch { return &MiniBatch{System: "Euler", BatchSize: 256} }

// NewDistDGL returns the DistDGL-flavoured mini-batch executor.
func NewDistDGL() *MiniBatch { return &MiniBatch{System: "DistDGL", BatchSize: 1024} }

// Name returns the system name.
func (m *MiniBatch) Name() string { return m.System }

// Supports reports false for MAGNN (Table 2's "X").
func (m *MiniBatch) Supports(kind ModelKind) bool { return kind != ModelMAGNN }

// Epoch runs one training epoch over all batches.
func (m *MiniBatch) Epoch(d *dataset.Dataset, spec Spec) (float32, error) {
	switch spec.Kind {
	case ModelGCN:
		return m.gcn(d, spec)
	case ModelPinSage:
		return m.pinsage(d, spec)
	default:
		return 0, ErrUnsupported
	}
}

func (m *MiniBatch) batches(n int) [][]graph.VertexID {
	b := m.BatchSize
	if b <= 0 {
		b = 512
	}
	var out [][]graph.VertexID
	for start := 0; start < n; start += b {
		end := start + b
		if end > n {
			end = n
		}
		batch := make([]graph.VertexID, end-start)
		for i := range batch {
			batch[i] = graph.VertexID(start + i)
		}
		out = append(out, batch)
	}
	return out
}

// rows returns the in-memory store the executors gather batch rows from.
func rows(d *dataset.Dataset) *store.Local {
	return store.NewLocal(store.LocalConfig{
		Graph: d.Graph, Features: d.Features, Labels: d.Labels, TrainMask: d.TrainMask,
	})
}

func (m *MiniBatch) gcn(d *dataset.Dataset, spec Spec) (float32, error) {
	in, classes := specDims(d)
	rng := tensor.NewRNG(spec.Seed)
	net := newTwoLayerNet(in, spec.Hidden, classes, false, rng)

	// Adjacency duplication: Euler materialises per-layer adjacency blocks
	// plus their gradients; DistDGL keeps a single block.
	dupFactor := int64(1)
	if m.System == "Euler" {
		dupFactor = 3
	}
	local := rows(d)

	var lastLoss float32
	for _, batch := range m.batches(d.Graph.NumVertices()) {
		// Full 2-hop neighborhood expansion (2 GNN layers), checked against
		// the budget before paying for the subgraph conversion.
		expanded := expandKHop(d.Graph, batch, 2)
		need := int64(len(expanded))*int64(in)*4 +
			expansionEdgeEstimate(d.Graph, expanded)*int64(in+spec.Hidden)*4*dupFactor
		if err := checkBudget(need, spec.MemBudget); err != nil {
			return 0, err
		}
		sub, remap := d.Graph.Induce(expanded)
		adj := engine.FromGraphInEdges(sub)
		fs, err := local.Gather(context.Background(), expanded)
		if err != nil {
			return 0, err
		}

		// Only batch targets contribute to the loss; the rest of the
		// expansion is dependency closure.
		mask := make([]bool, len(expanded))
		for _, v := range batch {
			mask[remap[v]] = fs.Mask[remap[v]]
		}

		h0 := nn.Constant(fs.Feats)
		a1 := engine.ScatterAggregate(adj, h0, tensor.ReduceSum)
		h1 := nn.ReLU(net.l1.Forward(nn.Add(h0, a1)))
		a2 := engine.ScatterAggregate(adj, h1, tensor.ReduceSum)
		logits := net.l2.Forward(nn.Add(h1, a2))
		lastLoss = net.step(logits, fs.Labels, mask)
	}
	return lastLoss, nil
}

func (m *MiniBatch) pinsage(d *dataset.Dataset, spec Spec) (float32, error) {
	in, classes := specDims(d)
	rng := tensor.NewRNG(spec.Seed)
	net := newTwoLayerNet(in, spec.Hidden, classes, true, rng)
	cfg := spec.PinSage

	// DistDGL shares DGL's walk implementation: whole-graph propagation
	// stages, run once per epoch and filtered per batch (§7.1: "DistDGL
	// reports almost the same performance with DGL").
	var distDGLRecs []hdg.Record
	if m.System != "Euler" {
		all, err := propagationWalks(d.Graph, cfg.NumWalks, cfg.Hops, cfg.TopK, 1, rng, spec.MemBudget)
		if err != nil {
			return 0, err
		}
		distDGLRecs = all
	}

	// Euler's walks are seeded from one draw of the executor's shared RNG,
	// per vertex (nau.VertexSeed), so a vertex's walks do not depend on the
	// batch it arrived in.
	var epochSeed uint64
	if m.System == "Euler" {
		epochSeed = rng.Uint64()
	}

	sel := func(batch []graph.VertexID) ([]hdg.Record, error) {
		var recs []hdg.Record
		if m.System == "Euler" {
			// Euler's parallel graph sampling query engine (§7.1).
			return nau.SelectRecords(d.Graph, nil, nau.RandomWalkUDF(cfg.NumWalks, cfg.Hops, cfg.TopK), batch, epochSeed, 0), nil
		}
		inBatch := make(map[graph.VertexID]bool, len(batch))
		for _, v := range batch {
			inBatch[v] = true
		}
		for _, r := range distDGLRecs {
			if inBatch[r.Root] {
				recs = append(recs, r)
			}
		}
		return recs, nil
	}

	ctx := context.Background()
	local := rows(d)
	schema := hdg.NewSchemaTree("vertex")
	u := store.NewUniverse(d.Graph.NumVertices())
	// One plan, rebuilt in place batch after batch: nothing reads a batch's
	// plan once its step is done.
	var p store.LayerPlan

	var lastLoss float32
	for _, batch := range m.batches(d.Graph.NumVertices()) {
		if err := store.Expand(ctx, local, schema, u, batch, sel, &p); err != nil {
			return 0, err
		}
		// The flat root->leaves adjacency over the batch universe: leaf
		// indices are universe rows, per-instance leaf order unchanged, so
		// aggregation reduces in exactly the fused executor's order.
		adj := engine.FromHDGFlat(p.Sub, len(p.In))
		need := adj.NumEdges() * int64(in+spec.Hidden) * 4
		if err := checkBudget(need, spec.MemBudget); err != nil {
			return 0, err
		}
		fs, err := local.Gather(ctx, p.In)
		if err != nil {
			return 0, err
		}

		nb := len(batch)
		rootRows := make([]int32, nb)
		for i := range rootRows {
			rootRows[i] = int32(i) // roots are the universe prefix
		}

		h0 := nn.Constant(fs.Feats)
		self0 := nn.Gather(h0, rootRows)
		a1 := engine.ScatterAggregate(adj, h0, tensor.ReduceSum)
		h1 := nn.ReLU(net.l1.Forward(nn.Concat(self0, a1)))
		// Second layer reuses the same selected neighbors at hidden width:
		// aggregate hidden features of neighbors via a batch-local pass.
		// Mini-batch systems recompute neighbor hidden states from raw
		// features (the k-hop dependency problem); emulate with a second
		// gather+aggregate on the first-layer output of neighbors, which
		// requires computing layer-1 for all leaf vertices too.
		//
		// Process leaves in global-ID order — the fused executor's
		// LeafVertexSet order — so gradient accumulation for the shared
		// layer-1 weights sums rows in the identical sequence. (Universe
		// row order differs: batch roots occupy the prefix.)
		leaves := p.Sub.LeafVertexSet()
		leafRows := make([]int32, len(leaves))
		for i, r := range leaves {
			leafRows[i] = int32(r)
		}
		sort.Slice(leafRows, func(i, j int) bool { return p.In[leafRows[i]] < p.In[leafRows[j]] })
		// Layer-1 hidden states for leaves (their own neighborhoods are
		// approximated by self features — the sampling depth cut-off).
		selfLeaf := nn.Gather(h0, leafRows)
		hLeaf := nn.ReLU(net.l1.Forward(nn.Concat(selfLeaf, selfLeaf)))
		// Scatter leaf hidden states into a universe-width buffer so the
		// flat adjacency (indexed by universe rows) can aggregate them.
		full := nn.ScatterAdd(hLeaf, leafRows, len(p.In))
		a2 := engine.ScatterAggregate(adj, full, tensor.ReduceSum)
		logits := net.l2.Forward(nn.Concat(h1, a2))
		lastLoss = net.step(logits, fs.Labels[:nb], fs.Mask[:nb])
	}
	return lastLoss, nil
}
