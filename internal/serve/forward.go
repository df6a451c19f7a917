package serve

import (
	"repro/internal/graph"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// computeBatch runs the model forward over the planned sub-levels and
// returns one logits row per root, in root order. checkCancel is consulted
// at every layer boundary (the serving path's context plumbing); rows for
// freshly computed vertices are inserted into the cache under version.
//
// The pass is forward-only: inputs are nn constants and the autograd graph
// each layer builds is dropped as soon as its output tensor is extracted, so
// a batch retains no backward closures or gradient buffers.
func (s *Server) computeBatch(plans []layerPlan, roots []graph.VertexID, version int64, checkCancel func() error) ([][]float32, error) {
	// rowOf resolves a vertex's previous-layer activation while running
	// layer l: for l == 0 the global input features, above that the cached
	// hits and freshly computed rows of layer l-1.
	rowOf := func(v graph.VertexID) []float32 { return s.feats.Row(int(v)) }
	dim := s.feats.Cols()
	probe := nau.Probe{Tracer: s.tracer, Epoch: int32(version)}

	for l := range plans {
		p := &plans[l]
		if len(p.Out) == 0 {
			// The cache covered this layer's whole frontier (planBatch then
			// stopped expanding, so every lower plan is empty too). The hit
			// rows feed the next layer — or the reply, for the last layer.
			if len(p.hits) == 0 {
				continue
			}
			hits := p.hits
			rowOf = func(v graph.VertexID) []float32 { return hits[v] }
			for _, row := range hits {
				dim = len(row) // the next layer assembles rows of this width
				break
			}
			continue
		}
		// Assemble the layer input: one row per universe vertex. The row
		// copies are exact, so this gather never perturbs the numerics.
		x := tensor.New(len(p.In), dim)
		for i, v := range p.In {
			copy(x.Row(i), rowOf(v))
		}
		res, err := p.Run(s.ctx, probe, l, s.model.Layers[l], nn.Constant(x), checkCancel)
		if err != nil {
			return nil, err
		}
		out := res.Data
		dim = out.Cols()

		miss := p.Out
		for i, v := range miss {
			s.cache.Put(int32(l), v, version, out.Row(i))
		}
		hits := p.hits
		rowOf = func(v graph.VertexID) []float32 {
			if row, ok := hits[v]; ok {
				return row
			}
			for i, u := range miss {
				if u == v {
					return out.Row(i)
				}
			}
			return nil
		}
		if len(miss) > 16 {
			// Linear scans stop paying off; index the computed rows.
			idx := make(map[graph.VertexID]int, len(miss))
			for i, u := range miss {
				idx[u] = i
			}
			rowOf = func(v graph.VertexID) []float32 {
				if row, ok := hits[v]; ok {
					return row
				}
				if i, ok := idx[v]; ok {
					return out.Row(i)
				}
				return nil
			}
		}
	}

	answers := make([][]float32, len(roots))
	for i, v := range roots {
		row := rowOf(v)
		// Copy out: reply rows must outlive the batch and never alias cache
		// or tensor storage.
		answers[i] = append([]float32(nil), row...)
	}
	return answers, nil
}
