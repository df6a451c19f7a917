package models

import (
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// MAGNNConfig bounds the metapath instance search.
type MAGNNConfig struct {
	// MaxInstances caps the instances found per (vertex, metapath);
	// 0 means unlimited.
	MaxInstances int
}

// MAGNNLayer is the paper's Fig. 7 MAGNN: an INHA layer whose "neighbors"
// are metapath instances. Aggregation is hierarchical:
//
//	level 3 -> 2: mean over each instance's member vertices
//	             (scatter_mean, executed by feature fusion under HA);
//	level 2 -> 1: attention-weighted combination of instances of the same
//	             metapath type (scatter_softmax);
//	level 1 -> 0: mean across metapath types (dense reshape + reduce under
//	             HA, Fig. 10).
//
// Update is ReLU(nbr_feas @ W).
type MAGNNLayer struct {
	lin    *nn.Linear
	attn   *nn.Value // [in, 1] attention scorer over instance features
	act    bool
	cfg    MAGNNConfig
	schema *hdg.SchemaTree
	paths  []graph.Metapath
}

// NewMAGNNLayer returns one MAGNN layer over the given metapaths.
func NewMAGNNLayer(in, out int, act bool, paths []graph.Metapath, cfg MAGNNConfig, rng *tensor.RNG) *MAGNNLayer {
	names := make([]string, len(paths))
	for i, p := range paths {
		names[i] = p.Name
	}
	return &MAGNNLayer{
		lin:    nn.NewLinear(in, out, true, rng),
		attn:   nn.Param(tensor.RandN(rng, 0.1, in, 1)),
		act:    act,
		cfg:    cfg,
		schema: hdg.NewSchemaTree(names...),
		paths:  paths,
	}
}

// Schema returns the metapath-type schema tree (Fig. 3c).
func (l *MAGNNLayer) Schema() *hdg.SchemaTree { return l.schema }

// Selector implements the paper's Fig. 5 magnn_nbr: search paths matching
// each metapath and emit one instance per match.
func (l *MAGNNLayer) Selector() nau.Selector {
	return nau.MetapathSelector(l.paths, l.cfg.MaxInstances)
}

// NeighborUDF is the Selector as a UDF.
func (l *MAGNNLayer) NeighborUDF() nau.NeighborUDF { return l.Selector().UDF() }

// Aggregation performs the 3-step hierarchical aggregation via the Fig. 6
// driver: mean within instances, attention across instances of a type,
// mean across types — the paper's [scatter_mean, scatter_softmax,
// scatter_mean] UDF list.
func (l *MAGNNLayer) Aggregation(ctx *nau.Context, feats *nn.Value) *nn.Value {
	return ctx.Aggregate(feats,
		nau.Mean,
		nau.LevelUDF{Attention: l.attn},
		nau.Mean,
	)
}

// Update computes ReLU(nbr_feas @ W + b); MAGNN's update uses the
// neighborhood representation only (Fig. 7).
func (l *MAGNNLayer) Update(_ *nau.Context, _, nbrFeats *nn.Value) *nn.Value {
	return l.lin.Apply(nbrFeats, l.act)
}

// Parameters returns the layer's weights and attention vector.
func (l *MAGNNLayer) Parameters() []*nn.Value {
	return append(l.lin.Parameters(), l.attn)
}

// NewMAGNN builds the 2-layer MAGNN model. Metapath instances never change,
// so HDGs are built once and cached for the entire run (§3.2, §7.2).
func NewMAGNN(in, hidden, classes int, paths []graph.Metapath, cfg MAGNNConfig, rng *tensor.RNG) *nau.Model {
	return &nau.Model{
		Name: "MAGNN",
		Layers: []nau.Layer{
			NewMAGNNLayer(in, hidden, true, paths, cfg, rng),
			NewMAGNNLayer(hidden, classes, false, paths, cfg, rng),
		},
		Cache: nau.CacheForever,
	}
}

var _ nau.AppendingLayer = (*MAGNNLayer)(nil)
