// Command custom-model builds a GNN that exists in no library — a
// "walk-and-hop" network whose neighborhood mixes two structured neighbor
// types per vertex: the top-k random-walk destinations (PinSage-style) AND
// the exact 2-hop BFS frontier (JK-Net-style) — to demonstrate that a new
// INHA model is a page of code under NAU: pick a schema tree, compose
// Fig. 5 UDFs, choose one Fig. 6 aggregation UDF per HDG level, and write
// the Update rule. The framework does the rest: parallel neighbor
// selection, compact HDG storage, hybrid execution, training.
package main

import (
	"fmt"
	"log"

	flexgraph "repro"
)

// walkHopLayer is the custom NAU layer.
type walkHopLayer struct {
	lin    *flexgraph.Linear
	act    bool
	schema *flexgraph.SchemaTree
	walks  flexgraph.NeighborUDF
	hops   flexgraph.NeighborUDF
}

func newWalkHopLayer(in, out int, act bool, rng *flexgraph.RNG) *walkHopLayer {
	return &walkHopLayer{
		lin:    flexgraph.NewLinear(2*in, out, true, rng),
		act:    act,
		schema: flexgraph.NewSchemaTree("walked", "hop2"),
		walks:  flexgraph.RandomWalkUDF(5, 3, 5),
		hops:   flexgraph.HopFrontierUDF(2),
	}
}

// Schema declares the two neighbor types.
func (l *walkHopLayer) Schema() *flexgraph.SchemaTree { return l.schema }

// NeighborUDF composes the two Fig. 5 selections: walk destinations become
// one multi-vertex instance of type "walked"; the 2-hop frontier becomes
// one instance of type "hop2".
func (l *walkHopLayer) NeighborUDF() flexgraph.NeighborUDF {
	return func(g *flexgraph.Graph, s *flexgraph.SchemaTree, v flexgraph.VertexID, rng *flexgraph.RNG) []flexgraph.HDGRecord {
		var recs []flexgraph.HDGRecord
		var walked []flexgraph.VertexID
		for _, r := range l.walks(g, s, v, rng) {
			walked = append(walked, r.Nei...)
		}
		if len(walked) > 0 {
			recs = append(recs, flexgraph.HDGRecord{Root: v, Nei: walked, Type: 0})
		}
		for _, r := range l.hops(g, s, v, rng) {
			if r.Type == 1 { // distance exactly 2
				recs = append(recs, flexgraph.HDGRecord{Root: v, Nei: r.Nei, Type: 1})
			}
		}
		return recs
	}
}

// Aggregation: mean within each instance, sum per type, max across the two
// neighbor types — three Fig. 6 levels.
func (l *walkHopLayer) Aggregation(ctx *flexgraph.LayerContext, feats *flexgraph.Value) *flexgraph.Value {
	return ctx.Aggregate(feats, flexgraph.AggMean, flexgraph.AggSum, flexgraph.AggMean)
}

// Update concatenates self and neighborhood representations and applies the
// layer — product, bias and ReLU as one fused autograd node.
func (l *walkHopLayer) Update(_ *flexgraph.LayerContext, feats, nbr *flexgraph.Value) *flexgraph.Value {
	return l.lin.Apply(flexgraph.ConcatValues(feats, nbr), l.act)
}

// Parameters exposes the trainable weights.
func (l *walkHopLayer) Parameters() []*flexgraph.Value { return l.lin.Parameters() }

func main() {
	d := flexgraph.RedditLike(flexgraph.DatasetConfig{Scale: 0.15, Seed: 9})
	fmt.Println("dataset:", d.Stats())

	rng := flexgraph.NewRNG(9)
	model := &flexgraph.Model{
		Name: "WalkHop",
		Layers: []flexgraph.Layer{
			newWalkHopLayer(d.FeatureDim(), 32, true, rng),
			newWalkHopLayer(32, d.NumClasses, false, rng),
		},
		Cache: flexgraph.CachePerEpoch, // walks change every epoch
	}

	tr := flexgraph.NewTrainerWith(model, flexgraph.TrainerOptions{
		Graph:     d.Graph,
		Features:  d.Features,
		Labels:    d.Labels,
		TrainMask: d.TrainMask,
		Seed:      9,
	})
	for epoch := 1; epoch <= 20; epoch++ {
		loss, err := tr.Epoch()
		if err != nil {
			log.Fatalf("epoch %d: %v", epoch, err)
		}
		if epoch%4 == 0 || epoch == 1 {
			acc, err := tr.Evaluate(nil)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("epoch %2d  loss %.4f  acc %.3f\n", epoch, loss, acc)
		}
	}
	h := tr.HDG()
	fmt.Printf("\nHDG: %d roots, %d instances across %d neighbor types (%d bytes)\n",
		h.NumRoots(), h.NumInstances(), h.NumTypes(), h.NumBytes())
	fmt.Println(tr.Breakdown.Table4Row(model.Name))
}
