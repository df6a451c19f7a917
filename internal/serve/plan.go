package serve

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/nau"
	"repro/internal/store"
)

// layerPlan is the work one model layer contributes to a batch: the vertices
// whose output must be computed (cache misses), the cached rows that cover
// the rest, and the sub-level adjacency over the batch's compact feature
// universe.
//
// The universe ordering is the invariant everything hangs off: in[0:len(miss)]
// is exactly miss, so the self-feature gather for the Update stage is the
// identity prefix, and every vertex appears once. Neighbor order within a
// destination matches the whole-graph level exactly, which is what keeps
// batched serving bit-identical to Trainer.Predict.
type layerPlan struct {
	// miss lists the vertices whose layer output this batch computes, in
	// deterministic first-seen order. Empty when the cache covered the
	// whole frontier — the layers below then do no work at all.
	miss []graph.VertexID
	// hits maps the remaining frontier vertices to their cached output
	// rows (read-only slices owned by the cache).
	hits map[graph.VertexID][]float32
	// in is the layer's input universe: the vertices whose previous-layer
	// activations the computation reads. miss is its prefix.
	in []graph.VertexID
	// adj is the 1-hop sub-level for DNFA models (nil for HDG models).
	adj *engine.Adjacency
	// sub is the leaf-remapped sub-HDG for INFA/INHA models (nil for DNFA).
	sub *hdg.HDG
}

// planBatch walks the model top-down from the query roots, probing the cache
// at every layer boundary and expanding only the misses into the next
// frontier — the k-hop sub-HDG extraction of §4.1 restricted to what the
// cache does not already hold. plans[l] describes layer l (0 = first layer).
func (s *Server) planBatch(roots []graph.VertexID, version int64) ([]layerPlan, error) {
	L := len(s.model.Layers)
	plans := make([]layerPlan, L)
	frontier := roots
	for l := L - 1; l >= 0; l-- {
		p := &plans[l]
		p.hits = make(map[graph.VertexID][]float32)
		for _, v := range frontier {
			if row := s.cache.Get(int32(l), v, version); row != nil {
				p.hits[v] = row
			} else {
				p.miss = append(p.miss, v)
			}
		}
		if len(p.miss) == 0 {
			// Fully cached: nothing below this layer runs.
			break
		}
		if err := s.expand(p); err != nil {
			return nil, err
		}
		frontier = p.in
	}
	return plans, nil
}

// expand builds p's input universe and sub-level from p.miss through
// store.Universe — the same extraction the prefetch sampler runs, kept in
// one place so serving and mini-batch training cannot drift. The universe
// orders the miss vertices first (the Update stage's self rows), then each
// destination's sources in whole-graph order.
func (s *Server) expand(p *layerPlan) error {
	u := store.NewUniverse(p.miss)
	if s.schema == nil {
		// DNFA: the input graph is the dependency structure; take each miss
		// vertex's 1-hop in-neighbors.
		nbrs := make([][]graph.VertexID, len(p.miss))
		for i, v := range p.miss {
			nbrs[i] = s.graph.InNeighbors(v)
		}
		p.adj = u.InEdgeAdjacency(p.miss, nbrs)
		p.in = u.Vertices()
		return nil
	}
	// INFA/INHA: run the model's own NeighborSelection over the miss roots,
	// seeding each root from its vertex ID so the records (and therefore the
	// cached activations built from them) are batch-composition independent.
	h, err := nau.NeighborSelectionSeeded(s.graph, s.schema, s.udf, p.miss,
		func(_ int, v graph.VertexID) uint64 {
			return s.seed ^ (0x9e3779b97f4a7c15 * (uint64(v) + 1))
		}, 0)
	if err != nil {
		return fmt.Errorf("serve: neighbor selection: %w", err)
	}
	if !s.schema.IsFlat() {
		// A multi-type schema means the model aggregates through the
		// 3-level hierarchical driver; force that shape even if this batch's
		// sampled instances all degenerated to single vertices.
		h.Hierarchicalize()
	}
	if p.sub, err = u.SubHDG(h); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	p.in = u.Vertices()
	return nil
}
