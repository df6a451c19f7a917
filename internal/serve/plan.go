package serve

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/store"
)

// layerPlan is the work one model layer contributes to a batch. The layer's
// frontier — the vertices whose output the batch needs — is the query roots
// for the last layer and the In of the layer above otherwise; the cache
// covers part of it and the store expands the rest. The executor keeps one
// plan per layer and rebuilds them in place batch after batch.
type layerPlan struct {
	// LayerPlan expands the cache misses (they are its Out). Above the
	// first layer Out is the identity prefix of a compact universe In, whose
	// rows are the layer below's per-batch activations; the first layer's
	// plan is resident, reading the feature matrix in place. No Out: the
	// cache covered the whole frontier, and the layers below do no work.
	store.LayerPlan
	// hits has one entry per frontier vertex (none below a fully cached
	// layer): its cached output row (read-only, owned by the cache), or nil
	// for a miss. The misses, in frontier order, are Out.
	hits [][]float32
}

// planBatch walks the model top-down from the query roots, probing the cache
// once per layer boundary and expanding only the misses into the next
// frontier. s.plans[l] describes layer l (0 = first layer); the first
// layer's expansion is resident (no universe), since its input is the
// feature matrix every vertex already has a row of.
func (s *Server) planBatch(roots []graph.VertexID, version int64) error {
	frontier := roots
	for l := len(s.plans) - 1; l >= 0; l-- {
		p := &s.plans[l]
		p.Out = nil
		p.hits, s.miss = s.cache.Probe(int32(l), frontier, version, p.hits, s.miss)
		if len(s.miss) == 0 {
			frontier = nil // fully cached: nothing below this layer runs
			continue
		}
		u := s.universe
		if l == 0 {
			u = nil
		}
		if err := store.Expand(context.Background(), s.topo, s.model.Layers[0].Schema(), u, s.miss, s.sample, &p.LayerPlan); err != nil {
			return fmt.Errorf("serve: expand layer %d: %w", l, err)
		}
		frontier = p.In
	}
	return nil
}
