// Package models implements the paper's evaluated GNN models as NAU layers
// (Fig. 7): GCN (DNFA), PinSage (INFA) and MAGNN (INHA), plus the two
// extension models the paper shows NAU can express (§3.2): P-GNN and
// JK-Net. Each model is a 2-layer stack, matching §7's setup.
package models

import (
	"repro/internal/hdg"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// GCNLayer is the paper's Fig. 7 GCN: a DNFA layer aggregating direct
// 1-hop neighbors with scatter_add and updating with
// ReLU((feas + nbr_feas) @ W).
type GCNLayer struct {
	lin  *nn.Linear
	act  bool
	aggr tensor.ReduceOp
}

// NewGCNLayer returns one GCN layer. act disables the final ReLU for the
// logits layer.
func NewGCNLayer(in, out int, act bool, rng *tensor.RNG) *GCNLayer {
	return &GCNLayer{lin: nn.NewLinear(in, out, true, rng), act: act, aggr: tensor.ReduceSum}
}

// Schema returns nil: GCN uses direct neighbors and builds no HDG (§7.4).
func (l *GCNLayer) Schema() *hdg.SchemaTree { return nil }

// NeighborUDF returns nil: the input graph captures the dependencies.
func (l *GCNLayer) NeighborUDF() nau.NeighborUDF { return nil }

// Aggregation sums the features of each vertex's 1-hop in-neighbors via
// the Fig. 6 level-wise driver (a single flat level for DNFA).
func (l *GCNLayer) Aggregation(ctx *nau.Context, feats *nn.Value) *nn.Value {
	return ctx.Aggregate(feats, nau.LevelUDF{Op: l.aggr})
}

// Update computes ReLU((feas + nbr_feas) @ W + b).
func (l *GCNLayer) Update(_ *nau.Context, feats, nbrFeats *nn.Value) *nn.Value {
	return l.lin.Apply(nn.Add(feats, nbrFeats), l.act)
}

// Parameters returns the layer's weights.
func (l *GCNLayer) Parameters() []*nn.Value { return l.lin.Parameters() }

// NewGCN builds the 2-layer GCN used throughout the evaluation.
func NewGCN(in, hidden, classes int, rng *tensor.RNG) *nau.Model {
	return &nau.Model{
		Name: "GCN",
		Layers: []nau.Layer{
			NewGCNLayer(in, hidden, true, rng),
			NewGCNLayer(hidden, classes, false, rng),
		},
		Cache: nau.CacheForever, // irrelevant: no HDGs are built
	}
}

var _ nau.Layer = (*GCNLayer)(nil)
