package models

import (
	"repro/internal/hdg"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// PinSageConfig holds the random-walk neighborhood parameters. The paper's
// §7 setting is 10 walks of length 3 with top-10 visited vertices.
type PinSageConfig struct {
	NumWalks int
	Hops     int
	TopK     int
}

// DefaultPinSageConfig returns the paper's §7 parameters.
func DefaultPinSageConfig() PinSageConfig {
	return PinSageConfig{NumWalks: 10, Hops: 3, TopK: 10}
}

// PinSageLayer is the paper's Fig. 7 PinSage: an INFA layer whose
// "neighbors" are the top-k most visited vertices across random walks
// (importance-based neighborhood, §2.2), aggregated flat with scatter_add,
// and updated with ReLU(CONCAT(feas, nbr_feas) @ W).
type PinSageLayer struct {
	lin    *nn.Linear
	act    bool
	cfg    PinSageConfig
	schema *hdg.SchemaTree
}

// NewPinSageLayer returns one PinSage layer; in is the input feature width
// (the concat doubles it internally).
func NewPinSageLayer(in, out int, act bool, cfg PinSageConfig, rng *tensor.RNG) *PinSageLayer {
	return &PinSageLayer{
		lin:    nn.NewLinear(2*in, out, true, rng),
		act:    act,
		cfg:    cfg,
		schema: hdg.NewSchemaTree("vertex"),
	}
}

// Schema returns the flat single-type schema ("vertex"): PinSage's HDGs are
// flat (Fig. 3b).
func (l *PinSageLayer) Schema() *hdg.SchemaTree { return l.schema }

// Selector implements the paper's Fig. 5 pinsage_nbr: run random walks
// from v and keep the top-k visited vertices as flat neighbors.
func (l *PinSageLayer) Selector() nau.Selector {
	return nau.RandomWalkSelector(l.cfg.NumWalks, l.cfg.Hops, l.cfg.TopK)
}

// NeighborUDF is the Selector as a UDF.
func (l *PinSageLayer) NeighborUDF() nau.NeighborUDF { return l.Selector().UDF() }

// Aggregation sums the features of the selected indirect neighbors over the
// flat HDG level (one Fig. 6 level).
func (l *PinSageLayer) Aggregation(ctx *nau.Context, feats *nn.Value) *nn.Value {
	return ctx.Aggregate(feats, nau.Sum)
}

// Update computes ReLU(CONCAT(feas, nbr_feas) @ W + b).
func (l *PinSageLayer) Update(_ *nau.Context, feats, nbrFeats *nn.Value) *nn.Value {
	return l.lin.Apply(nn.Concat(feats, nbrFeats), l.act)
}

// Parameters returns the layer's weights.
func (l *PinSageLayer) Parameters() []*nn.Value { return l.lin.Parameters() }

// NewPinSage builds the 2-layer PinSage model. HDGs are rebuilt each epoch
// (random walks differ across epochs, §3.2's Discussion) and shared across
// the two layers within an epoch.
func NewPinSage(in, hidden, classes int, cfg PinSageConfig, rng *tensor.RNG) *nau.Model {
	return &nau.Model{
		Name: "PinSage",
		Layers: []nau.Layer{
			NewPinSageLayer(in, hidden, true, cfg, rng),
			NewPinSageLayer(hidden, classes, false, cfg, rng),
		},
		Cache: nau.CachePerEpoch,
	}
}

var _ nau.AppendingLayer = (*PinSageLayer)(nil)
