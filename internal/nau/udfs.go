package nau

import (
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/tensor"
)

// This file provides the reusable neighbor-selection UDFs of the paper's
// Fig. 5, so custom models can compose neighborhoods without re-writing the
// graph queries: direct 1-hop neighbors (gnn_nbr), random-walk top-k
// neighbors (pinsage_nbr) and metapath instances (magnn_nbr), plus the
// anchor-set and per-hop selections used by the §3.2 extension models.

// Every UDF here allocates per root, not per record: one []hdg.Record plus,
// at most, one leaf backing (grown by append where its size is not known up
// front) that each record's Nei sub-slices. Consumers must treat Nei as
// read-only; the sub-slices are capacity-limited so that an append
// reallocates instead of overwriting the next record's leaves.

// singleLeafRecords returns one type-0 record per vertex of leaves, each
// Nei a one-vertex window of leaves.
func singleLeafRecords(v graph.VertexID, leaves []graph.VertexID) []hdg.Record {
	recs := make([]hdg.Record, len(leaves))
	for i := range recs {
		recs[i] = hdg.Record{Root: v, Nei: leaves[i : i+1 : i+1]}
	}
	return recs
}

// RandomWalkUDF returns the top-k most visited vertices over numWalks
// random walks of the given hop count — the paper's pinsage_nbr.
func RandomWalkUDF(numWalks, hops, topK int) NeighborUDF {
	return func(g *graph.Graph, _ *hdg.SchemaTree, v graph.VertexID, rng *tensor.RNG) []hdg.Record {
		leaves := make([]graph.VertexID, 0, max(0, min(topK, numWalks*hops)))
		return singleLeafRecords(v, g.AppendTopKVisited(leaves, rng, v, numWalks, hops, topK))
	}
}

// MetapathUDF returns every metapath instance rooted at v, typed by its
// metapath's index in paths — the paper's magnn_nbr. maxInstances bounds
// the search per (vertex, metapath); 0 means unlimited.
func MetapathUDF(paths []graph.Metapath, maxInstances int) NeighborUDF {
	return func(g *graph.Graph, _ *hdg.SchemaTree, v graph.VertexID, _ *tensor.RNG) []hdg.Record {
		// First every instance into one backing, then the records over it:
		// windows taken while the backing still grows would be left behind
		// by a reallocation.
		var endsBuf [8]int
		ends, n := endsBuf[:0], 0
		var leaves []graph.VertexID
		for _, mp := range paths {
			before := len(leaves)
			leaves = g.AppendMetapathInstances(leaves, v, mp, maxInstances)
			if l := mp.Length(); l > 0 {
				n += (len(leaves) - before) / l
			}
			ends = append(ends, len(leaves))
		}
		if n == 0 {
			return nil
		}
		recs := make([]hdg.Record, 0, n)
		lo := 0
		for t, mp := range paths {
			for l := mp.Length(); lo < ends[t]; lo += l {
				recs = append(recs, hdg.Record{Root: v, Nei: leaves[lo : lo+l : lo+l], Type: t})
			}
		}
		return recs
	}
}

// AnchorSetUDF returns one record per pre-sampled anchor set — P-GNN's
// neighborhood (§3.2). Every root's records share the anchor sets.
func AnchorSetUDF(anchors [][]graph.VertexID) NeighborUDF {
	return func(_ *graph.Graph, _ *hdg.SchemaTree, v graph.VertexID, _ *tensor.RNG) []hdg.Record {
		recs := make([]hdg.Record, len(anchors))
		for i, set := range anchors {
			recs[i] = hdg.Record{Root: v, Nei: set[:len(set):len(set)], Type: i}
		}
		return recs
	}
}

// HopFrontierUDF returns one record per BFS hop frontier up to hops —
// JK-Net's neighborhood (§3.2): the i-th "neighbor" holds the vertices at
// shortest-path distance exactly i+1.
func HopFrontierUDF(hops int) NeighborUDF {
	return func(g *graph.Graph, _ *hdg.SchemaTree, v graph.VertexID, _ *tensor.RNG) []hdg.Record {
		// order is v followed by the BFS discovery order; ends[h] closes
		// frontier h in it (frontier 0 is v alone), so the BFS queue is the
		// leaf backing.
		visited := map[graph.VertexID]bool{v: true}
		order := []graph.VertexID{v}
		var endsBuf [8]int
		ends := append(endsBuf[:0], 1)
		for lo := 0; len(ends) <= hops; {
			hi := len(order)
			for _, u := range order[lo:hi] {
				for _, w := range g.OutNeighbors(u) {
					if !visited[w] {
						visited[w] = true
						order = append(order, w)
					}
				}
			}
			if len(order) == hi {
				break
			}
			ends = append(ends, len(order))
			lo = hi
		}
		recs := make([]hdg.Record, len(ends)-1)
		for h := range recs {
			recs[h] = hdg.Record{Root: v, Nei: order[ends[h]:ends[h+1]:ends[h+1]], Type: h}
		}
		return recs
	}
}
