package nau

import (
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/tensor"
)

// This file provides the reusable neighbor selections of the paper's Fig. 5,
// so custom models can compose neighborhoods without re-writing the graph
// queries: random-walk top-k neighbors (pinsage_nbr) and metapath instances
// (magnn_nbr), plus the anchor-set and per-hop selections used by the §3.2
// extension models. Each is written once, as a Selector; its NeighborUDF is
// the Selector.UDF adapter over that one implementation.

// Selector is a neighbor selection in its appending form: run writes root
// v's neighbor instances straight into a selection worker's arena, types
// ascending, instead of returning records. A layer that has one says so by
// implementing AppendingLayer, and whole-graph selection then builds its HDG
// with no record, no per-root slice and no hdg.Build pass in between.
type Selector struct {
	types int // run emits instance types below this
	run   func(g *graph.Graph, v graph.VertexID, rng *tensor.RNG, a *arena)
}

// AppendingLayer is a Layer whose NeighborUDF also has the appending form.
type AppendingLayer interface {
	Layer
	Selector() Selector
}

// arenaPool holds the arenas (visit tables included) the UDF adapters run on.
var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// UDF returns s as a NeighborUDF. Each call runs s on a pooled arena and
// copies the root's instances out as records over one leaf backing that
// every Nei sub-slices with a three-index slice, so an append by a consumer
// reallocates instead of writing into the next record. Consumers must treat
// Nei as read-only.
func (s Selector) UDF() NeighborUDF {
	return func(g *graph.Graph, _ *hdg.SchemaTree, v graph.VertexID, rng *tensor.RNG) []hdg.Record {
		a := arenaPool.Get().(*arena)
		a.reset(s.types)
		a.begin()
		s.run(g, v, rng, a)
		var recs []hdg.Record
		if len(a.ends) > 0 {
			leaves, lo, i := slices.Clone(a.leaves[:a.closed]), int32(0), 0
			recs = make([]hdg.Record, len(a.ends))
			for t, end := range a.slots {
				for ; i < int(end); i++ {
					hi := a.ends[i]
					recs[i], lo = hdg.Record{Root: v, Nei: leaves[lo:hi:hi], Type: t}, hi
				}
			}
		}
		arenaPool.Put(a)
		return recs
	}
}

// RandomWalkSelector keeps the top-k most visited vertices over numWalks
// random walks of the given hop count, one single-vertex instance each — the
// paper's pinsage_nbr.
func RandomWalkSelector(numWalks, hops, topK int) Selector {
	return Selector{types: 1, run: func(g *graph.Graph, v graph.VertexID, rng *tensor.RNG, a *arena) {
		a.leaves = g.AppendTopKVisited(a.leaves, rng, v, numWalks, hops, topK, a.visitTable(g))
		a.split(0, 1)
	}}
}

// MetapathSelector selects every metapath instance rooted at v, typed by
// its metapath's index in paths — the paper's magnn_nbr. maxInstances bounds
// the search per (vertex, metapath); 0 means unlimited.
func MetapathSelector(paths []graph.Metapath, maxInstances int) Selector {
	return Selector{types: len(paths), run: func(g *graph.Graph, v graph.VertexID, _ *tensor.RNG, a *arena) {
		for t, mp := range paths {
			a.leaves = g.AppendMetapathInstances(a.leaves, v, mp, maxInstances)
			a.split(t, mp.Length())
		}
	}}
}

// AnchorSetSelector selects one instance per pre-sampled anchor set — P-GNN's
// neighborhood (§3.2); an empty set selects nothing.
func AnchorSetSelector(anchors [][]graph.VertexID) Selector {
	return Selector{types: len(anchors), run: func(_ *graph.Graph, _ graph.VertexID, _ *tensor.RNG, a *arena) {
		for t, set := range anchors {
			a.leaves = append(a.leaves, set...)
			a.split(t, len(set))
		}
	}}
}

// HopFrontierSelector selects one instance per BFS hop frontier up to hops —
// JK-Net's neighborhood (§3.2): the i-th "neighbor" holds the vertices at
// shortest-path distance exactly i+1, in BFS discovery order. The arena's
// visit table marks what the search has reached.
func HopFrontierSelector(hops int) Selector {
	return Selector{types: hops, run: func(g *graph.Graph, v graph.VertexID, _ *tensor.RNG, a *arena) {
		seen, start := a.visitTable(g), len(a.leaves)
		seen[v] = 1
		from := []graph.VertexID{v}
		for h := 0; h < hops; h++ {
			lo := len(a.leaves)
			for _, u := range from {
				for _, w := range g.OutNeighbors(u) {
					if seen[w] == 0 {
						seen[w] = 1
						a.leaves = append(a.leaves, w)
					}
				}
			}
			if len(a.leaves) == lo {
				break
			}
			a.split(h, len(a.leaves)-lo)
			from = a.leaves[lo:]
		}
		seen[v] = 0
		for _, w := range a.leaves[start:] {
			seen[w] = 0
		}
	}}
}

// RandomWalkUDF is RandomWalkSelector as a NeighborUDF.
func RandomWalkUDF(numWalks, hops, topK int) NeighborUDF {
	return RandomWalkSelector(numWalks, hops, topK).UDF()
}

// MetapathUDF is MetapathSelector as a NeighborUDF.
func MetapathUDF(paths []graph.Metapath, maxInstances int) NeighborUDF {
	return MetapathSelector(paths, maxInstances).UDF()
}

// HopFrontierUDF is HopFrontierSelector as a NeighborUDF.
func HopFrontierUDF(hops int) NeighborUDF { return HopFrontierSelector(hops).UDF() }
