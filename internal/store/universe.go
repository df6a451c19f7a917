package store

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hdg"
)

// Universe builds a batch's compact input universe: the vertices whose
// previous-layer activations a batch computation reads, each assigned one
// row. The seed vertices (a layer's output frontier) come first, so the
// Update stage's self-feature gather is the identity prefix; dependencies
// are appended in deterministic first-add order — the one ordering the
// prefetch sampler and the serve planner share.
//
// The vertex -> row index is a dense stamp table over the graph's vertex
// IDs: a slot counts only while its generation is current, so Reset forgets
// every row in O(1) and one Universe serves every expansion its owner makes
// without allocating. Not safe for concurrent use: one per goroutine.
type Universe struct {
	in    []graph.VertexID
	slots []slot
	gen   uint32
	// fresh is SubHDG's scratch: the leaves new to the universe.
	fresh []graph.VertexID
}

type slot struct {
	gen uint32
	row int32
}

// NewUniverse returns an empty universe over vertex IDs [0, numVertices).
func NewUniverse(numVertices int) *Universe {
	return &Universe{slots: make([]slot, numVertices)}
}

// Reset starts a new universe from the seed vertices, which must be
// duplicate-free (a layer frontier always is). The rows are built in buf's
// backing array (nil: Vertices outlives the next Reset).
func (u *Universe) Reset(buf, seeds []graph.VertexID) error {
	u.gen++
	if u.gen == 0 {
		clear(u.slots) // wrapped: slots stamped 2^32 resets ago would read as current
		u.gen = 1
	}
	u.in = slices.Grow(buf[:0], len(seeds))
	for _, v := range seeds {
		if u.Add(v) < 0 {
			return fmt.Errorf("store: seed vertex %d not in [0,%d)", v, len(u.slots))
		}
	}
	return nil
}

// Add ensures v has a row and returns it (-1: v is outside the graph).
func (u *Universe) Add(v graph.VertexID) int32 {
	if uint(v) >= uint(len(u.slots)) {
		return -1
	}
	s := &u.slots[v]
	if s.gen != u.gen {
		*s = slot{gen: u.gen, row: int32(len(u.in))}
		u.in = append(u.in, v)
	}
	return s.row
}

// Vertices returns the universe's vertices in row order. The slice is owned
// by the universe until the next Reset; callers must not mutate it.
func (u *Universe) Vertices() []graph.VertexID { return u.in }

// InEdgeAdjacency appends each destination's in-neighbors (read from gs) to
// the universe and returns the sub-level adjacency over it: one destination
// row per dst (in order), sources remapped to universe rows with whole-graph
// neighbor order preserved — the property that keeps batched aggregation
// bit-equal to the whole-graph level. A nil universe is Expand's resident
// mode: the sources stay whole-graph vertex IDs, rows of the feature matrix
// itself, and the store's lists are appended verbatim. DstPtr and SrcIdx are
// filled in one pass over the store's lists, into the arrays of reuse when it
// is non-nil (an earlier batch's adjacency that nothing reads any more).
func (u *Universe) InEdgeAdjacency(ctx context.Context, gs GraphStore, dsts []graph.VertexID, reuse *engine.Adjacency) (*engine.Adjacency, error) {
	adj := &engine.Adjacency{NumDst: len(dsts)}
	if reuse != nil {
		adj.DstPtr, adj.SrcIdx = reuse.DstPtr[:0], reuse.SrcIdx[:0]
	}
	adj.DstPtr = append(adj.DstPtr, 0)
	var n int // the vertex count sources are checked against
	if u != nil {
		n = len(u.slots)
	} else {
		n = gs.NumVertices()
	}
	bad := false
	err := gs.InEdges(ctx, dsts, func(nbrs []graph.VertexID) {
		if u == nil {
			var hi uint32 // the largest source; a negative one wraps high
			for _, v := range nbrs {
				hi = max(hi, uint32(v))
			}
			bad = bad || len(nbrs) > 0 && hi >= uint32(n)
			adj.SrcIdx = append(adj.SrcIdx, nbrs...)
		} else {
			for _, v := range nbrs {
				row := u.Add(v)
				bad = bad || row < 0
				adj.SrcIdx = append(adj.SrcIdx, row)
			}
		}
		adj.DstPtr = append(adj.DstPtr, int64(len(adj.SrcIdx)))
	})
	if err != nil {
		return nil, err
	}
	if bad || len(adj.DstPtr) != len(dsts)+1 {
		return nil, &FetchError{Op: "in_edges", Verts: len(dsts),
			Err: fmt.Errorf("store: neighbor lists do not fit %d destinations over %d vertices", len(dsts), n)}
	}
	adj.NumSrc = n
	if u != nil {
		adj.NumSrc = len(u.in)
	}
	return adj, nil
}

// SubHDG appends h's leaf vertices that are not in the universe yet, in
// ascending ID order (the rows LeafVertexSet's sorted order gives, keeping
// leaf processing deterministic), and rewrites h's leaves in place to their
// universe rows. Only the new leaves are sorted: a leaf already present — a
// frontier vertex, or one an earlier leaf added — keeps its row. Instance
// structure and per-instance leaf order are untouched, so aggregation over
// the sub-HDG reduces in exactly the whole-graph order. A leaf outside the
// graph is a *FetchError, and the universe must then be Reset.
func (u *Universe) SubHDG(h *hdg.HDG) error {
	if err := checkLeaves(h, len(u.slots)); err != nil {
		return err
	}
	fresh := u.fresh[:0]
	for _, v := range h.LeafIDs {
		if s := &u.slots[v]; s.gen != u.gen {
			*s = slot{gen: u.gen} // marked; its row is assigned below
			fresh = append(fresh, v)
		}
	}
	slices.Sort(fresh)
	for _, v := range fresh {
		u.slots[v].row = int32(len(u.in))
		u.in = append(u.in, v)
	}
	u.fresh = fresh
	for i, v := range h.LeafIDs {
		h.LeafIDs[i] = u.slots[v].row
	}
	return nil
}

// checkLeaves reports h's first leaf outside [0, n) — a vertex no feature
// row belongs to — as the failure of the selection that produced it.
func checkLeaves(h *hdg.HDG, n int) error {
	for _, v := range h.LeafIDs {
		if uint(v) >= uint(n) {
			return &FetchError{Op: "sample", Verts: h.NumRoots(),
				Err: fmt.Errorf("store: leaf vertex %d not in [0,%d)", v, n)}
		}
	}
	return nil
}
