package serve

import (
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// computeBatch runs the model forward over the planned sub-levels and
// returns one logits row per root, in root order, in a pooled tensor the
// caller recycles. cancel is consulted at every layer boundary (the serving
// path's context plumbing); rows for freshly computed vertices are inserted
// into the cache under version.
//
// The pass is forward-only and holds one layer at a time. The first layer
// reads the resident feature matrix in place (its plan indexes vertex IDs);
// every layer above reads a pooled tensor assembled from the layer below, and
// once a layer's output rows are copied on (into the cache and the next
// layer's input) its whole autograd graph goes back to the buffer pool, so a
// batch in steady state allocates no activation storage at all.
func (s *Server) computeBatch(version int64, cancel func() error) (*tensor.Tensor, error) {
	probe := nau.Probe{Tracer: s.tracer, Epoch: int32(version)}
	var x *tensor.Tensor // activations of the current layer's In, one row each
	for l := range s.plans {
		p := &s.plans[l]
		if len(p.hits) == 0 {
			continue // below a fully cached layer
		}
		var out *nn.Value
		var width int
		if len(p.Out) > 0 {
			in := x
			if l == 0 {
				in = s.feats // a leaf: never written, never pooled
			}
			var err error
			out, err = p.Run(s.ctx, probe, l, s.model.Layers[l], nn.Constant(in), cancel)
			if err != nil {
				return nil, err // x and the half-built graph are left to the GC
			}
			width = out.Data.Cols()
			s.cache.Fill(int32(l), p.Out, version, out.Data)
		} else {
			width = len(p.hits[0])
		}
		// The frontier's rows — cached or just computed, the misses being
		// out's rows in order — are the input of the layer above, or the
		// answer after the last layer.
		next := tensor.NewUninit(len(p.hits), width)
		computed := 0
		for i, hit := range p.hits {
			if hit == nil {
				hit = out.Data.Row(computed)
				computed++
			}
			copy(next.Row(i), hit)
		}
		if out != nil {
			// ReleaseGraph spares its root's Data (a trainer still reads the
			// loss), so hang the output under a data-less root: the walk then
			// returns every buffer the layer drew, views excepted.
			nn.ReleaseGraph(nn.NewOp(nil, nil, out))
			tensor.Recycle(x) // nil below layer 1
		}
		x = next
	}
	return x, nil
}
