package store

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Run executes layer l of a model over this plan: it points c at the plan's
// sub-level (c is reused across layers and batches; everything cached from
// the previous plan is dropped) and runs the layer there. x holds the
// previous layer's activations of In — for a resident plan, the feature
// matrix itself, which is only read; the result has one row per Out vertex.
// The flat level a flat sub-HDG aggregates through stays with the plan, and
// the plan's next Run — after Expand rebuilt it — refills its storage.
func (p *LayerPlan) Run(c *nau.Context, probe nau.Probe, l int, layer nau.Layer, x *nn.Value, cancel func() error) (*nn.Value, error) {
	c.InvalidateHDG(p.Sub)
	c.RecycleFlat(p.flat)
	c.SetGraphAdjacency(p.Adj)
	c.NumFeatureRows = p.rows
	var self []int32 // Out is all of In: no self gather
	switch {
	case p.rows != len(p.In): // resident: Out's own rows of the matrix
		self = p.Out
	case len(p.Out) < len(p.In):
		for i := len(p.ident); i < len(p.Out); i++ {
			p.ident = append(p.ident, int32(i))
		}
		self = p.ident[:len(p.Out)]
	}
	out, err := c.RunLayer(probe, l, layer, x, self, cancel)
	if err == nil && p.Sub != nil && p.Sub.IsFlat() {
		p.flat = c.FlatAdjacency() // built by the aggregation: a lookup
	}
	return out, err
}

// Forward runs a NAU model over a layered batch with autograd intact: layer
// l consumes layer l-1's activations through plan l's sub-structure, and
// the result holds one logits row per batch root.
//
// Because plan l-1's input universe extends plan l's (layer l's inputs are
// the prefix of layer l-1's outputs), no inter-layer gather is needed
// beyond the identity-prefix self gather the layer step already does.
func Forward(model *nau.Model, eng *engine.Engine, g *graph.Graph, b *Batch, rng *tensor.RNG, train bool) (*nn.Value, error) {
	return ForwardWith(&nau.Context{Graph: g, Engine: eng, RNG: rng, Train: train}, nau.Probe{}, model, b)
}

// ForwardWith is Forward on the caller's context c (Graph, Engine, RNG and
// Train set; reused batch after batch, since Run drops whatever c cached
// from the previous plan), reporting each layer's stage time and spans to
// probe.
func ForwardWith(c *nau.Context, probe nau.Probe, model *nau.Model, b *Batch) (*nn.Value, error) {
	if len(b.Plans) != len(model.Layers) {
		return nil, fmt.Errorf("store: batch has %d layer plans, model has %d layers",
			len(b.Plans), len(model.Layers))
	}
	x := nn.Constant(b.Feats)
	for l, layer := range model.Layers {
		var err error
		if x, err = b.Plans[l].Run(c, probe, l, layer, x, nil); err != nil {
			return nil, err
		}
	}
	return x, nil
}
