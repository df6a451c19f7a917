package models

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file implements the two INHA extension models the paper shows NAU
// can express succinctly (§3.2): P-GNN (anchor-set neighbors) and JK-Net
// (per-hop neighbors). Both reuse the generic hierarchical machinery:
// bottom mean over each neighbor instance's member vertices, a sparse
// intermediate step, and a dense schema-level reduction.

// PGNNLayer implements P-GNN in NAU: each vertex's i-th "neighbor" is a
// global anchor-set of vertices; the schema tree has one leaf per
// anchor-set. Aggregation first means over each anchor-set's members, then
// means across the k anchor-sets.
type PGNNLayer struct {
	lin     *nn.Linear
	act     bool
	schema  *hdg.SchemaTree
	anchors [][]graph.VertexID
}

// NewPGNNLayer builds a layer over pre-sampled anchor sets.
func NewPGNNLayer(in, out int, act bool, anchors [][]graph.VertexID, rng *tensor.RNG) *PGNNLayer {
	names := make([]string, len(anchors))
	for i := range names {
		names[i] = fmt.Sprintf("anchor%d", i)
	}
	return &PGNNLayer{
		lin:     nn.NewLinear(2*in, out, true, rng),
		act:     act,
		schema:  hdg.NewSchemaTree(names...),
		anchors: anchors,
	}
}

// SampleAnchorSets draws k anchor sets of the given size uniformly from g's
// vertices, as P-GNN does at the start of training.
func SampleAnchorSets(g *graph.Graph, k, size int, rng *tensor.RNG) [][]graph.VertexID {
	out := make([][]graph.VertexID, k)
	for i := range out {
		set := make([]graph.VertexID, size)
		for j := range set {
			set[j] = graph.VertexID(rng.Intn(g.NumVertices()))
		}
		out[i] = set
	}
	return out
}

// Schema returns one leaf per anchor-set.
func (l *PGNNLayer) Schema() *hdg.SchemaTree { return l.schema }

// Selector emits one instance per anchor-set for every vertex.
func (l *PGNNLayer) Selector() nau.Selector { return nau.AnchorSetSelector(l.anchors) }

// NeighborUDF is the Selector as a UDF.
func (l *PGNNLayer) NeighborUDF() nau.NeighborUDF { return l.Selector().UDF() }

// Aggregation means over each anchor-set then across anchor-sets (every
// (root, type) slot holds exactly one instance); three Fig. 6 levels.
func (l *PGNNLayer) Aggregation(ctx *nau.Context, feats *nn.Value) *nn.Value {
	return ctx.Aggregate(feats, nau.Mean, nau.Sum, nau.Mean)
}

// Update computes ReLU(CONCAT(feas, nbr_feas) @ W + b).
func (l *PGNNLayer) Update(_ *nau.Context, feats, nbrFeats *nn.Value) *nn.Value {
	return l.lin.Apply(nn.Concat(feats, nbrFeats), l.act)
}

// Parameters returns the layer's weights.
func (l *PGNNLayer) Parameters() []*nn.Value { return l.lin.Parameters() }

// NewPGNN builds a 2-layer P-GNN with k anchor-sets of the given size.
func NewPGNN(g *graph.Graph, in, hidden, classes, k, setSize int, rng *tensor.RNG) *nau.Model {
	anchors := SampleAnchorSets(g, k, setSize, rng)
	return &nau.Model{
		Name: "P-GNN",
		Layers: []nau.Layer{
			NewPGNNLayer(in, hidden, true, anchors, rng),
			NewPGNNLayer(hidden, classes, false, anchors, rng),
		},
		Cache: nau.CacheForever,
	}
}

var _ nau.AppendingLayer = (*PGNNLayer)(nil)

// JKNetLayer implements JK-Net in NAU: the i-th "neighbor" of v contains
// all vertices at shortest-path distance exactly i, so the schema tree has
// one leaf per hop. Features are meaned within each hop and then across
// hops (jumping-knowledge combination).
type JKNetLayer struct {
	lin    *nn.Linear
	act    bool
	hops   int
	schema *hdg.SchemaTree
}

// NewJKNetLayer builds a layer combining the given number of hops.
func NewJKNetLayer(in, out, hops int, act bool, rng *tensor.RNG) *JKNetLayer {
	names := make([]string, hops)
	for i := range names {
		names[i] = fmt.Sprintf("hop%d", i+1)
	}
	return &JKNetLayer{
		lin:    nn.NewLinear(2*in, out, true, rng),
		act:    act,
		hops:   hops,
		schema: hdg.NewSchemaTree(names...),
	}
}

// Schema returns one leaf per hop distance.
func (l *JKNetLayer) Schema() *hdg.SchemaTree { return l.schema }

// Selector runs a bounded BFS from each vertex and emits one instance per
// non-empty hop frontier.
func (l *JKNetLayer) Selector() nau.Selector { return nau.HopFrontierSelector(l.hops) }

// NeighborUDF is the Selector as a UDF.
func (l *JKNetLayer) NeighborUDF() nau.NeighborUDF { return l.Selector().UDF() }

// Aggregation means within each hop, then max-pools across hops — JK-Net's
// jumping-knowledge max combiner (three Fig. 6 levels; each (root, hop)
// slot holds at most one instance).
func (l *JKNetLayer) Aggregation(ctx *nau.Context, feats *nn.Value) *nn.Value {
	return ctx.Aggregate(feats, nau.Mean, nau.Sum, nau.Max)
}

// Update computes ReLU(CONCAT(feas, nbr_feas) @ W + b).
func (l *JKNetLayer) Update(_ *nau.Context, feats, nbrFeats *nn.Value) *nn.Value {
	return l.lin.Apply(nn.Concat(feats, nbrFeats), l.act)
}

// Parameters returns the layer's weights.
func (l *JKNetLayer) Parameters() []*nn.Value { return l.lin.Parameters() }

// NewJKNet builds a 2-layer JK-Net combining the given number of hops.
func NewJKNet(in, hidden, classes, hops int, rng *tensor.RNG) *nau.Model {
	return &nau.Model{
		Name: "JK-Net",
		Layers: []nau.Layer{
			NewJKNetLayer(in, hidden, hops, true, rng),
			NewJKNetLayer(hidden, classes, hops, false, rng),
		},
		Cache: nau.CacheForever,
	}
}

var _ nau.AppendingLayer = (*JKNetLayer)(nil)
