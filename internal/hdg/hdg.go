// Package hdg implements hierarchical dependency graphs, the core data
// structure of the paper (§3.1, §4.1). An HDG encodes, for every root
// vertex, how its feature is aggregated from its "neighbors": a schema tree
// of neighbor types at the top, neighbor instances in the middle, and leaf
// vertices from the input graph at the bottom.
//
// The storage follows §4.1's compact layout:
//
//  1. Subgraph of neighbor instances (bottom level): CSC-style arrays
//     LeafOffset + LeafIDs (the paper's Offset3/Dst3).
//  2. Subgraph in-between (instances -> schema leaves): instances are
//     ordered consecutively by (root, type), so the destination array
//     (the paper's Dst2) is omitted entirely and only the offset array
//     InstOffset is kept.
//  3. Schema trees: a single global schema tree shared by all roots, never
//     one physical copy per root.
//
// Flat HDGs (DNFA/INFA models such as GCN and PinSage) collapse the bottom
// two levels: each neighbor instance is a single vertex, so LeafOffset is
// dropped and LeafIDs indexes directly by instance.
package hdg

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
)

// SchemaTree encodes the neighbor types of a GNN model (§3.1). The root is
// implicit; Types are the leaves. A flat model has a single type.
type SchemaTree struct {
	Types []string
}

// NewSchemaTree returns a schema tree with the given neighbor type names.
func NewSchemaTree(types ...string) *SchemaTree {
	if len(types) == 0 {
		panic("hdg: schema tree needs at least one neighbor type")
	}
	return &SchemaTree{Types: append([]string(nil), types...)}
}

// NumTypes returns the number of neighbor types (schema leaves).
func (s *SchemaTree) NumTypes() int { return len(s.Types) }

// IsFlat reports whether the schema has a single neighbor type, i.e. the
// model is DNFA or INFA and the schema tree degenerates to the root (the
// paper's "we stipulate T = v when T has a single neighbor type").
func (s *SchemaTree) IsFlat() bool { return len(s.Types) == 1 }

// Record is one "neighbor" produced by a NeighborSelection UDF: the paper's
// (root, nei = [leaf_0..leaf_n], nei_type) tuple (§4.1).
type Record struct {
	Root graph.VertexID
	Nei  []graph.VertexID
	Type int
}

// HDG is the collection of hierarchical dependency graphs for a set of root
// vertices, stored in the compact layout described in the package comment.
type HDG struct {
	Schema *SchemaTree

	// Roots lists the root vertices, in rank order. rootRank is the
	// inverse mapping, built on RootRank's first call.
	Roots    []graph.VertexID
	rankOnce sync.Once
	rootRank map[graph.VertexID]int32

	// flat records that every neighbor instance is a single vertex.
	flat bool

	// InstOffset has length NumRoots*NumTypes+1. Instances are ordered by
	// (root rank, type); InstOffset[r*T+t] .. InstOffset[r*T+t+1] is the
	// instance range for root r and type t. Because of this ordering the
	// paper's Dst2 array is implicit and never stored.
	InstOffset []int32

	// LeafIDs holds the leaf vertices of all instances, concatenated in
	// instance order. For flat HDGs instance i's single leaf is
	// LeafIDs[i] and LeafOffset is nil; otherwise instance i's leaves are
	// LeafIDs[LeafOffset[i]:LeafOffset[i+1]].
	LeafOffset []int32
	LeafIDs    []graph.VertexID
}

// Build constructs the HDG for the given roots from NeighborSelection
// records. Records may arrive in any order; they are grouped by
// (root, type). Records whose root is not in roots are rejected.
//
// Records that already arrive grouped — root-major in roots order, types
// ascending within a root, which is how the selection driver emits them —
// are laid out in one pass without the root index. That order is
// verified record by record, never assumed: the first record out of place
// sends the whole input through the counting sort instead.
func Build(schema *SchemaTree, roots []graph.VertexID, records []Record) (*HDG, error) {
	return BuildInto(nil, schema, roots, records)
}

// BuildInto is Build into the storage arrays of reuse, an HDG nothing reads
// any more (nil allocates): a caller rebuilding one HDG per batch keeps its
// arrays at their high-water size. Neither roots nor the records' leaves may
// alias reuse's arrays. Only the in-order pass reuses them; the counting sort
// allocates its own.
func BuildInto(reuse *HDG, schema *SchemaTree, roots []graph.VertexID, records []Record) (*HDG, error) {
	if err := checkRoots(roots); err != nil {
		return nil, err
	}
	if reuse == nil {
		reuse = &HDG{}
	}
	h := &HDG{Schema: schema, Roots: append(reuse.Roots[:0], roots...)}
	ok, err := h.buildInOrder(reuse, records)
	if !ok && err == nil {
		err = h.buildSorted(records)
	}
	if err != nil {
		return nil, err
	}
	return h, nil
}

// New returns the HDG over roots made of storage arrays a selection driver
// wrote (and checked) itself; a nil leafOffset means every instance is one
// leaf (flat). The HDG takes the slices over.
func New(schema *SchemaTree, roots []graph.VertexID, instOffset, leafOffset []int32, leafIDs []graph.VertexID) *HDG {
	return &HDG{Schema: schema, Roots: roots, flat: leafOffset == nil,
		InstOffset: instOffset, LeafOffset: leafOffset, LeafIDs: leafIDs}
}

// checkRoots rejects duplicate roots.
func checkRoots(roots []graph.VertexID) error {
	sorted := slices.Clone(roots)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return fmt.Errorf("hdg: duplicate root %d", sorted[i])
		}
	}
	return nil
}

// checkRecord validates the parts of a record that do not depend on its
// position.
func checkRecord(rec *Record, numTypes int) error {
	if rec.Type < 0 || rec.Type >= numTypes {
		return fmt.Errorf("hdg: record type %d out of range [0,%d)", rec.Type, numTypes)
	}
	if len(rec.Nei) == 0 {
		return fmt.Errorf("hdg: record for root %d has no leaves", rec.Root)
	}
	return nil
}

// buildInOrder fills the storage arrays, in reuse's, in a single pass,
// provided records are already ordered by (root rank, type). It reports
// false, leaving h's arrays for buildSorted to overwrite, at the first record
// that is not.
func (h *HDG) buildInOrder(reuse *HDG, records []Record) (bool, error) {
	T := h.Schema.NumTypes()
	instOffset := append(slices.Grow(reuse.InstOffset[:0], len(h.Roots)*T+1), 0)[:len(h.Roots)*T+1]
	leafIDs := slices.Grow(reuse.LeafIDs[:0], len(records)) // exact while flat
	var leafOffset []int32                                  // nil while flat
	rank, slot := 0, 0                                      // instOffset[:slot+1] is final
	for i := range records {
		rec := &records[i]
		if rank == len(h.Roots) || rec.Root != h.Roots[rank] {
			// A later root (roots without records are skipped), or out of
			// order; an unknown root is for buildSorted to report.
			for rank++; rank < len(h.Roots) && h.Roots[rank] != rec.Root; rank++ {
			}
			if rank >= len(h.Roots) {
				return false, nil
			}
		}
		if err := checkRecord(rec, T); err != nil {
			return false, err
		}
		s := rank*T + rec.Type
		if s < slot {
			return false, nil
		}
		for ; slot < s; slot++ {
			instOffset[slot+1] = int32(i)
		}
		if len(rec.Nei) > 1 && leafOffset == nil {
			leafOffset = slices.Grow(reuse.LeafOffset[:0], len(records)+1)
			for j := range i + 1 {
				leafOffset = append(leafOffset, int32(j))
			}
			// Hierarchical from here on: size LeafIDs exactly, from the
			// leaves of the records still to come.
			rest := 0
			for j := i; j < len(records); j++ {
				rest += len(records[j].Nei)
			}
			leafIDs = slices.Grow(leafIDs, rest)
		}
		leafIDs = append(leafIDs, rec.Nei...)
		if leafOffset != nil {
			leafOffset = append(leafOffset, int32(len(leafIDs)))
		}
	}
	for ; slot < len(h.Roots)*T; slot++ {
		instOffset[slot+1] = int32(len(records))
	}
	h.flat = leafOffset == nil
	h.InstOffset, h.LeafOffset, h.LeafIDs = instOffset, leafOffset, leafIDs
	return true, nil
}

// buildSorted is the general path: it orders records by (root rank, type)
// with a stable counting sort, so the instance ordering matches InstOffset
// and Dst2 stays implicit.
func (h *HDG) buildSorted(records []Record) error {
	T := h.Schema.NumTypes()
	h.flat = true
	counts := make([]int32, len(h.Roots)*T+1)
	for i := range records {
		rec := &records[i]
		rank, ok := h.RootRank(rec.Root)
		if !ok {
			return fmt.Errorf("hdg: record for unknown root %d", rec.Root)
		}
		if err := checkRecord(rec, T); err != nil {
			return err
		}
		if len(rec.Nei) > 1 {
			h.flat = false
		}
		counts[int(rank)*T+rec.Type+1]++
	}
	h.InstOffset = counts
	for i := 1; i < len(h.InstOffset); i++ {
		h.InstOffset[i] += h.InstOffset[i-1]
	}
	ordered := make([]*Record, len(records))
	next := make([]int32, len(h.Roots)*T)
	copy(next, h.InstOffset[:len(h.Roots)*T])
	for i := range records {
		rec := &records[i]
		rank, _ := h.RootRank(rec.Root)
		slot := int(rank)*T + rec.Type
		ordered[next[slot]] = rec
		next[slot]++
	}
	// Emit leaf arrays.
	if h.flat {
		h.LeafIDs = make([]graph.VertexID, len(ordered))
		for i, rec := range ordered {
			h.LeafIDs[i] = rec.Nei[0]
		}
		return nil
	}
	h.LeafOffset = make([]int32, len(ordered)+1)
	total := 0
	for i, rec := range ordered {
		total += len(rec.Nei)
		h.LeafOffset[i+1] = int32(total)
	}
	h.LeafIDs = make([]graph.VertexID, 0, total)
	for _, rec := range ordered {
		h.LeafIDs = append(h.LeafIDs, rec.Nei...)
	}
	return nil
}

// NumRoots returns the number of root vertices.
func (h *HDG) NumRoots() int { return len(h.Roots) }

// NumTypes returns the number of neighbor types.
func (h *HDG) NumTypes() int { return h.Schema.NumTypes() }

// NumInstances returns the number of neighbor instances across all roots.
func (h *HDG) NumInstances() int {
	return int(h.InstOffset[len(h.InstOffset)-1])
}

// IsFlat reports whether every instance is a single vertex, in which case
// the bottom aggregation directly produces root-level features.
func (h *HDG) IsFlat() bool { return h.flat }

// RootRank returns the rank of root v and whether it is present.
func (h *HDG) RootRank(v graph.VertexID) (int32, bool) {
	h.rankOnce.Do(func() {
		h.rootRank = make(map[graph.VertexID]int32, len(h.Roots))
		for i, r := range h.Roots {
			h.rootRank[r] = int32(i)
		}
	})
	r, ok := h.rootRank[v]
	return r, ok
}

// Instances returns the instance index range [lo, hi) for root rank r and
// type t.
func (h *HDG) Instances(r int, t int) (int32, int32) {
	slot := r*h.NumTypes() + t
	return h.InstOffset[slot], h.InstOffset[slot+1]
}

// Leaves returns the leaf vertices of instance i.
func (h *HDG) Leaves(i int) []graph.VertexID {
	if h.flat {
		return h.LeafIDs[i : i+1]
	}
	return h.LeafIDs[h.LeafOffset[i]:h.LeafOffset[i+1]]
}

// InstanceSlots materialises, for every instance, its destination slot
// (rootRank*NumTypes + type) at the intermediate level. This is the index
// tensor handed to sparse scatter operations; it is derived from InstOffset,
// demonstrating that the omitted Dst2 array is recoverable.
func (h *HDG) InstanceSlots() []int32 {
	out := make([]int32, h.NumInstances())
	for slot := 0; slot < len(h.InstOffset)-1; slot++ {
		for i := h.InstOffset[slot]; i < h.InstOffset[slot+1]; i++ {
			out[i] = int32(slot)
		}
	}
	return out
}

// LeafVertexSet returns the deduplicated set of leaf vertices referenced by
// this HDG, ascending, which is exactly the set of features the owning
// partition needs (locally or via synchronisation) to aggregate.
func (h *HDG) LeafVertexSet() []graph.VertexID {
	out := slices.Clone(h.LeafIDs)
	slices.Sort(out)
	return slices.Compact(out)
}

// Hierarchicalize converts a flat HDG to the explicit hierarchical
// representation (LeafOffset materialised as the identity ranges). Build
// infers flatness from the records it sees, which is right for whole-graph
// training but wrong for a small serving batch of a hierarchical model
// whose sampled instances all happen to be single vertices: the aggregation
// driver dispatches on IsFlat, and the model's level-UDF count must keep
// matching. No-op on an already hierarchical HDG.
func (h *HDG) Hierarchicalize() {
	if !h.flat {
		return
	}
	h.LeafOffset = make([]int32, len(h.LeafIDs)+1)
	for i := range h.LeafIDs {
		h.LeafOffset[i+1] = int32(i + 1)
	}
	h.flat = false
}

// NumBytes returns the memory footprint of the compact storage (Table 5's
// numerator): InstOffset + LeafOffset + LeafIDs + Roots, plus the single
// shared schema tree.
func (h *HDG) NumBytes() int64 {
	b := int64(len(h.InstOffset))*4 + int64(len(h.LeafOffset))*4 +
		int64(len(h.LeafIDs))*4 + int64(len(h.Roots))*4
	for _, t := range h.Schema.Types {
		b += int64(len(t))
	}
	return b
}

// NumBytesNaive returns what a plain per-level CSC representation without
// §4.1's optimisations would cost: the Dst2 array materialised (one entry
// per instance), per-root physical schema trees, and an explicit instance
// destination array at the bottom level. Used by the storage ablation
// bench.
func (h *HDG) NumBytesNaive() int64 {
	b := h.NumBytes()
	b += int64(h.NumInstances()) * 4 // materialised Dst2
	// One schema tree copy per root: root vertex + one node per type.
	b += int64(h.NumRoots()) * int64(1+h.NumTypes()) * 4
	return b
}
