package serve

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/nau"
	"repro/internal/store"
)

// layerPlan is the work one model layer contributes to a batch: the store's
// expansion of the vertices whose output must be computed (the cache misses
// are the plan's Out, and so the identity prefix of its In), plus the cached
// rows that cover the rest of the frontier.
type layerPlan struct {
	// LayerPlan is empty when the cache covered the whole frontier — the
	// layers below then do no work at all.
	store.LayerPlan
	// hits maps the frontier vertices that were not expanded to their cached
	// output rows (read-only slices owned by the cache).
	hits map[graph.VertexID][]float32
}

// planBatch walks the model top-down from the query roots, probing the cache
// at every layer boundary and expanding only the misses into the next
// frontier. plans[l] describes layer l (0 = first layer).
func (s *Server) planBatch(roots []graph.VertexID, version int64) ([]layerPlan, error) {
	L := len(s.model.Layers)
	plans := make([]layerPlan, L)
	frontier := roots
	for l := L - 1; l >= 0; l-- {
		p := &plans[l]
		p.hits = make(map[graph.VertexID][]float32)
		var miss []graph.VertexID // in deterministic first-seen order
		for _, v := range frontier {
			if row := s.cache.Get(int32(l), v, version); row != nil {
				p.hits[v] = row
			} else {
				miss = append(miss, v)
			}
		}
		if len(miss) == 0 {
			// Fully cached: nothing below this layer runs.
			break
		}
		var err error
		if p.LayerPlan, err = store.Expand(context.Background(), s.topo, s.schema, miss, s.selectRecords); err != nil {
			return nil, fmt.Errorf("serve: expand layer %d: %w", l, err)
		}
		frontier = p.In
	}
	return plans, nil
}

// selectRecords runs the model's own NeighborSelection over a frontier,
// seeding each root from its vertex ID so the records (and therefore the
// cached activations built from them) are batch-composition independent.
func (s *Server) selectRecords(frontier []graph.VertexID) ([]hdg.Record, error) {
	return nau.SelectRecords(s.graph, s.schema, s.udf, frontier,
		func(_ int, v graph.VertexID) uint64 {
			return s.seed ^ (0x9e3779b97f4a7c15 * (uint64(v) + 1))
		}, 0), nil
}
