package models

import (
	"repro/internal/hdg"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file implements the other two DNFA models the paper's categorisation
// names alongside GCN (§2.2): GIN and G-GCN. Both use direct 1-hop
// neighbors and flat aggregation, so like GCN they build no HDGs — the
// input graph captures the dependencies.

// GINLayer is a Graph Isomorphism Network layer (Xu et al., ICLR'19):
//
//	h' = MLP((1+ε)·h + Σ_{u∈N(v)} h_u)
//
// with a learnable ε and a 2-layer MLP update.
type GINLayer struct {
	eps  *nn.Value // [1,1] learnable scalar
	mlp1 *nn.Linear
	mlp2 *nn.Linear
	act  bool
}

// NewGINLayer returns one GIN layer with ε initialised to 0.
func NewGINLayer(in, out int, act bool, rng *tensor.RNG) *GINLayer {
	return &GINLayer{
		eps:  nn.Param(tensor.New(1, 1)),
		mlp1: nn.NewLinear(in, out, true, rng),
		mlp2: nn.NewLinear(out, out, true, rng),
		act:  act,
	}
}

// Schema returns nil: GIN is DNFA.
func (l *GINLayer) Schema() *hdg.SchemaTree { return nil }

// NeighborUDF returns nil: the input graph captures the dependencies.
func (l *GINLayer) NeighborUDF() nau.NeighborUDF { return nil }

// Aggregation sums 1-hop neighbor features (GIN requires an injective sum).
func (l *GINLayer) Aggregation(ctx *nau.Context, feats *nn.Value) *nn.Value {
	return ctx.Aggregate(feats, nau.Sum)
}

// Update computes MLP((1+ε)·h + nbr).
func (l *GINLayer) Update(_ *nau.Context, feats, nbrFeats *nn.Value) *nn.Value {
	// (1+ε)·h: broadcast the scalar by scaling through MulBroadcast over a
	// column of ones would cost a pass; instead use Scale with 1 plus the
	// current ε value in the graph via Mul on an expanded column.
	ones := nn.Constant(tensor.Ones(feats.Data.Rows(), 1))
	epsCol := nn.MatMul(ones, l.eps) // [n,1] of ε, differentiable in ε
	scaled := nn.Add(feats, nn.MulBroadcast(epsCol, feats))
	h := l.mlp1.Apply(nn.Add(scaled, nbrFeats), true)
	return l.mlp2.Apply(h, l.act)
}

// Parameters returns ε and the MLP weights.
func (l *GINLayer) Parameters() []*nn.Value {
	return append(append([]*nn.Value{l.eps}, l.mlp1.Parameters()...), l.mlp2.Parameters()...)
}

// NewGIN builds a 2-layer GIN.
func NewGIN(in, hidden, classes int, rng *tensor.RNG) *nau.Model {
	return &nau.Model{
		Name: "GIN",
		Layers: []nau.Layer{
			NewGINLayer(in, hidden, true, rng),
			NewGINLayer(hidden, classes, false, rng),
		},
		Cache: nau.CacheForever,
	}
}

var _ nau.Layer = (*GINLayer)(nil)

// GGCNLayer is a gated GCN layer in the spirit of G-GCN (Marcheggiani &
// Titov, EMNLP'17): neighbor messages pass through a learned sigmoid gate
// before aggregation's combine step:
//
//	h' = ReLU(W·(h + g ⊙ nbr)),  g = σ(h·Wg)
type GGCNLayer struct {
	lin  *nn.Linear
	gate *nn.Linear // [in -> 1] edge-gate scorer on the receiving vertex
	act  bool
}

// NewGGCNLayer returns one gated layer.
func NewGGCNLayer(in, out int, act bool, rng *tensor.RNG) *GGCNLayer {
	return &GGCNLayer{
		lin:  nn.NewLinear(in, out, true, rng),
		gate: nn.NewLinear(in, 1, true, rng),
		act:  act,
	}
}

// Schema returns nil: G-GCN is DNFA.
func (l *GGCNLayer) Schema() *hdg.SchemaTree { return nil }

// NeighborUDF returns nil.
func (l *GGCNLayer) NeighborUDF() nau.NeighborUDF { return nil }

// Aggregation mean-pools 1-hop neighbor features.
func (l *GGCNLayer) Aggregation(ctx *nau.Context, feats *nn.Value) *nn.Value {
	return ctx.Aggregate(feats, nau.Mean)
}

// Update gates the neighborhood representation by the receiver's state and
// combines.
func (l *GGCNLayer) Update(_ *nau.Context, feats, nbrFeats *nn.Value) *nn.Value {
	g := nn.Sigmoid(l.gate.Forward(feats)) // [n,1]
	gated := nn.MulBroadcast(g, nbrFeats)
	return l.lin.Apply(nn.Add(feats, gated), l.act)
}

// Parameters returns the combine and gate weights.
func (l *GGCNLayer) Parameters() []*nn.Value {
	return append(l.lin.Parameters(), l.gate.Parameters()...)
}

// NewGGCN builds a 2-layer gated GCN.
func NewGGCN(in, hidden, classes int, rng *tensor.RNG) *nau.Model {
	return &nau.Model{
		Name: "G-GCN",
		Layers: []nau.Layer{
			NewGGCNLayer(in, hidden, true, rng),
			NewGGCNLayer(hidden, classes, false, rng),
		},
		Cache: nau.CacheForever,
	}
}

var _ nau.Layer = (*GGCNLayer)(nil)
