// Package engine implements FlexGraph's hybrid aggregation execution
// (§4.2): for each level of the HDGs it selects between
//
//   - feature fusion (FA): a graph-processing style reduction that streams
//     source features into per-destination buffers without materialising
//     per-edge messages — used at the neighbor-instance (bottom) level;
//   - sparse NN operations (SA): gather + scatter over a COO-encoded level,
//     which materialises one message per edge — the baseline strategy, and
//     the right tool at the intermediate level where each source has exactly
//     one outgoing edge;
//   - dense NN operations: a free reshape plus a dense middle-dimension
//     reduction (Fig. 10) — used at the schema level, whose regular form is
//     shared by all roots.
//
// All three paths are differentiable, so full models train through them.
// The strategies SA, SA+FA, and HA of the paper's Fig. 14 ablation select
// which paths are enabled.
package engine

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/hdg"
)

// Adjacency is a destination-major index for one aggregation level: edges
// go from feature rows (sources) to output rows (destinations). Destination
// d's incoming sources are SrcIdx[DstPtr[d]:DstPtr[d+1]]. (The intermediate
// HDG level, whose sources are the identity — the paper's omitted-Dst2 case —
// has no Adjacency at all: it runs on the HDG's own InstOffset, see
// AggregateIntermediate.)
type Adjacency struct {
	NumDst int
	NumSrc int
	DstPtr []int64
	SrcIdx []int32

	revOnce sync.Once
	rev     *Adjacency

	// plan caches the degree-bucket classification for the bucketed
	// scheduler (see schedule.go).
	planOnce sync.Once
	plan     *bucketPlan
}

// NumEdges returns the level's edge count.
func (a *Adjacency) NumEdges() int64 { return a.DstPtr[a.NumDst] }

// Src returns the source of edge e.
func (a *Adjacency) Src(e int64) int32 { return a.SrcIdx[e] }

// EdgeLists materialises the per-edge (src, dst) index arrays — the COO
// encoding used by the sparse (SA) execution path.
func (a *Adjacency) EdgeLists() (src, dst []int32) {
	m := a.NumEdges()
	dst = make([]int32, m)
	for d := 0; d < a.NumDst; d++ {
		for e := a.DstPtr[d]; e < a.DstPtr[d+1]; e++ {
			dst[e] = int32(d)
		}
	}
	return a.SrcIdx, dst
}

// Reverse returns the source-major view (src -> list of dsts), building and
// caching it on first use. The backward pass of the fused aggregation uses
// it to route gradients without atomics.
func (a *Adjacency) Reverse() *Adjacency {
	a.revOnce.Do(func() {
		r := a.rev
		if r == nil {
			r = &Adjacency{}
		}
		m := a.NumEdges()
		ptr := slices.Grow(r.DstPtr[:0], a.NumSrc+1)[:a.NumSrc+1]
		clear(ptr)
		for e := int64(0); e < m; e++ {
			ptr[a.Src(e)+1]++
		}
		for i := 0; i < a.NumSrc; i++ {
			ptr[i+1] += ptr[i]
		}
		// ptr[s] is source s's write cursor; afterwards it holds ptr[s+1].
		idx := slices.Grow(r.SrcIdx[:0], int(m))[:m]
		for d := 0; d < a.NumDst; d++ {
			for e := a.DstPtr[d]; e < a.DstPtr[d+1]; e++ {
				s := a.Src(e)
				idx[ptr[s]] = int32(d)
				ptr[s]++
			}
		}
		copy(ptr[1:], ptr[:a.NumSrc])
		ptr[0] = 0
		*r = Adjacency{NumDst: a.NumSrc, NumSrc: a.NumDst, DstPtr: ptr, SrcIdx: idx, plan: r.plan}
		a.rev = r
	})
	return a.rev
}

// Degrees returns the in-degree of every destination.
func (a *Adjacency) Degrees() []int32 {
	out := make([]int32, a.NumDst)
	for d := range out {
		out[d] = int32(a.DstPtr[d+1] - a.DstPtr[d])
	}
	return out
}

// FromGraphInEdges builds the level used by DNFA models like GCN: every
// vertex is a destination and its in-neighbors are the sources. No HDG is
// materialised — the input graph itself captures the dependencies (§7.4).
func FromGraphInEdges(g *graph.Graph) *Adjacency {
	n := g.NumVertices()
	ptr := make([]int64, n+1)
	for v := 0; v < n; v++ {
		ptr[v+1] = ptr[v] + int64(g.InDegree(graph.VertexID(v)))
	}
	idx := make([]int32, ptr[n])
	for v := 0; v < n; v++ {
		copy(idx[ptr[v]:ptr[v+1]], g.InNeighbors(graph.VertexID(v)))
	}
	return &Adjacency{NumDst: n, NumSrc: n, DstPtr: ptr, SrcIdx: idx}
}

// FromHDGBottom builds the bottom level of a hierarchical HDG: leaf
// vertices -> neighbor instances. numFeatureRows is the size of the feature
// universe leaf IDs index into (the graph's vertex count, or a local remap
// in distributed mode).
func FromHDGBottom(h *hdg.HDG, numFeatureRows int) *Adjacency {
	if h.IsFlat() {
		panic("engine: FromHDGBottom on a flat HDG; use FromHDGFlat")
	}
	n := h.NumInstances()
	ptr := make([]int64, n+1)
	for i := 0; i < n; i++ {
		ptr[i+1] = ptr[i] + int64(len(h.Leaves(i)))
	}
	idx := make([]int32, ptr[n])
	for i := 0; i < n; i++ {
		copy(idx[ptr[i]:ptr[i+1]], h.Leaves(i))
	}
	return &Adjacency{NumDst: n, NumSrc: numFeatureRows, DstPtr: ptr, SrcIdx: idx}
}

// FromHDGFlat builds the single level of a flat HDG (INFA models like
// PinSage): leaf vertices -> roots.
func FromHDGFlat(h *hdg.HDG, numFeatureRows int) *Adjacency {
	return FlatInto(nil, h, numFeatureRows)
}

// FlatInto is FromHDGFlat into the storage of a, which nothing may read any
// more (nil allocates); its reverse view and bucket plans are rebuilt in
// theirs on next use. Root r's sources are instances InstOffset[r*T:(r+1)*T].
func FlatInto(a *Adjacency, h *hdg.HDG, numFeatureRows int) *Adjacency {
	if !h.IsFlat() {
		panic("engine: FromHDGFlat on a hierarchical HDG")
	}
	if a == nil {
		a = &Adjacency{}
	}
	nR, T := h.NumRoots(), h.NumTypes()
	ptr := slices.Grow(a.DstPtr[:0], nR+1)
	for r := 0; r <= nR; r++ {
		ptr = append(ptr, int64(h.InstOffset[r*T]))
	}
	idx := append(a.SrcIdx[:0], h.LeafIDs[:h.NumInstances()]...)
	*a = Adjacency{NumDst: nR, NumSrc: numFeatureRows, DstPtr: ptr, SrcIdx: idx, rev: a.rev, plan: a.plan}
	return a
}

func (a *Adjacency) validate(featRows int) {
	if featRows != a.NumSrc {
		panic(fmt.Sprintf("engine: feature rows %d != adjacency source universe %d", featRows, a.NumSrc))
	}
}
