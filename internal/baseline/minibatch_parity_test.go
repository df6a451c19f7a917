package baseline

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// fusedMiniBatchGCN is a frozen copy of the pre-store mini-batch GCN
// executor (expansion, conversion and training fused in one loop). The
// store-based executor must reproduce it bit for bit — this copy exists only
// as that reference.
func fusedMiniBatchGCN(m *MiniBatch, d *dataset.Dataset, spec Spec) (float32, error) {
	in, classes := specDims(d)
	rng := tensor.NewRNG(spec.Seed)
	net := newTwoLayerNet(in, spec.Hidden, classes, false, rng)
	dupFactor := int64(1)
	if m.System == "Euler" {
		dupFactor = 3
	}
	var lastLoss float32
	for _, batch := range m.batches(d.Graph.NumVertices()) {
		expanded := expandKHop(d.Graph, batch, 2)
		need := int64(len(expanded))*int64(in)*4 +
			expansionEdgeEstimate(d.Graph, expanded)*int64(in+spec.Hidden)*4*dupFactor
		if err := checkBudget(need, spec.MemBudget); err != nil {
			return 0, err
		}
		sub, remap := induceSubgraph(d.Graph, expanded)
		feats := gatherRows(d.Features, expanded)
		adj := engine.FromGraphInEdges(sub)

		labels := make([]int32, len(expanded))
		mask := make([]bool, len(expanded))
		for i, v := range expanded {
			labels[i] = d.Labels[v]
		}
		for _, v := range batch {
			if d.TrainMask[v] {
				mask[remap[v]] = true
			}
		}

		h0 := nn.Constant(feats)
		a1 := engine.ScatterAggregate(adj, h0, tensor.ReduceSum)
		h1 := nn.ReLU(net.l1.Forward(nn.Add(h0, a1)))
		a2 := engine.ScatterAggregate(adj, h1, tensor.ReduceSum)
		logits := net.l2.Forward(nn.Add(h1, a2))
		lastLoss = net.step(logits, labels, mask)
	}
	return lastLoss, nil
}

// fusedMiniBatchPinSage is the frozen pre-store PinSage executor.
func fusedMiniBatchPinSage(m *MiniBatch, d *dataset.Dataset, spec Spec) (float32, error) {
	in, classes := specDims(d)
	rng := tensor.NewRNG(spec.Seed)
	net := newTwoLayerNet(in, spec.Hidden, classes, true, rng)
	cfg := spec.PinSage

	var distDGLRecs []hdg.Record
	if m.System != "Euler" {
		all, err := propagationWalks(d.Graph, cfg.NumWalks, cfg.Hops, cfg.TopK, 1, rng, spec.MemBudget)
		if err != nil {
			return 0, err
		}
		distDGLRecs = all
	}

	var epochSeed uint64
	if m.System == "Euler" {
		epochSeed = rng.Uint64()
	}

	var lastLoss float32
	for _, batch := range m.batches(d.Graph.NumVertices()) {
		var recs []hdg.Record
		if m.System == "Euler" {
			perRoot := make([][]hdg.Record, len(batch))
			tensor.ParallelFor(len(batch), func(s, e int) {
				visits := make([]uint32, d.Graph.NumVertices())
				for i := s; i < e; i++ {
					wrng := tensor.NewRNG(nau.VertexSeed(epochSeed, batch[i]))
					for _, u := range d.Graph.AppendTopKVisited(nil, wrng, batch[i], cfg.NumWalks, cfg.Hops, cfg.TopK, visits) {
						perRoot[i] = append(perRoot[i], hdg.Record{Root: batch[i], Nei: []graph.VertexID{u}, Type: 0})
					}
				}
			})
			for _, rs := range perRoot {
				recs = append(recs, rs...)
			}
		} else {
			inBatch := make(map[graph.VertexID]bool, len(batch))
			for _, v := range batch {
				inBatch[v] = true
			}
			for _, r := range distDGLRecs {
				if inBatch[r.Root] {
					recs = append(recs, r)
				}
			}
		}
		h, err := hdg.Build(hdg.NewSchemaTree("vertex"), batch, recs)
		if err != nil {
			return 0, err
		}
		adj := engine.FromHDGFlat(h, d.Graph.NumVertices())
		need := adj.NumEdges() * int64(in+spec.Hidden) * 4
		if err := checkBudget(need, spec.MemBudget); err != nil {
			return 0, err
		}

		labels := make([]int32, len(batch))
		mask := make([]bool, len(batch))
		for i, v := range batch {
			labels[i] = d.Labels[v]
			mask[i] = d.TrainMask[v]
		}
		batchIdx := make([]int32, len(batch))
		for i, v := range batch {
			batchIdx[i] = v
		}

		h0 := nn.Constant(d.Features)
		self0 := nn.Gather(h0, batchIdx)
		a1 := engine.ScatterAggregate(adj, h0, tensor.ReduceSum)
		h1 := nn.ReLU(net.l1.Forward(nn.Concat(self0, a1)))
		leafSet := h.LeafVertexSet()
		leafIdx := make([]int32, len(leafSet))
		for i, v := range leafSet {
			leafIdx[i] = v
		}
		selfLeaf := nn.Gather(h0, leafIdx)
		hLeaf := nn.ReLU(net.l1.Forward(nn.Concat(selfLeaf, selfLeaf)))
		full := nn.ScatterAdd(hLeaf, leafIdx, d.Graph.NumVertices())
		a2 := engine.ScatterAggregate(adj, full, tensor.ReduceSum)
		logits := net.l2.Forward(nn.Concat(h1, a2))
		lastLoss = net.step(logits, labels, mask)
	}
	return lastLoss, nil
}

func TestMiniBatchMatchesFusedExecutorBitExact(t *testing.T) {
	d := dataset.RedditLike(dataset.Config{Scale: 0.05, Seed: 4})
	for _, sys := range []func() *MiniBatch{NewEuler, NewDistDGL} {
		for _, kind := range []ModelKind{ModelGCN, ModelPinSage} {
			base := sys()
			base.BatchSize = 64
			spec := DefaultSpec(kind)
			spec.Seed = 99

			var want float32
			var err error
			switch kind {
			case ModelGCN:
				want, err = fusedMiniBatchGCN(base, d, spec)
			default:
				want, err = fusedMiniBatchPinSage(base, d, spec)
			}
			if err != nil {
				t.Fatalf("%s/%s fused: %v", base.System, kind, err)
			}

			m := sys()
			m.BatchSize = 64
			got, err := m.Epoch(d, spec)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.System, kind, err)
			}
			if got != want {
				t.Fatalf("%s/%s: loss %v, fused executor %v", m.System, kind, got, want)
			}
		}
	}
}
