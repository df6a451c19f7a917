package graph

import (
	"repro/internal/tensor"
)

// RandomWalk performs one random walk of the given number of hops starting
// at start, following out-edges uniformly. The returned path includes start
// and stops early at sinks. This is the primitive PinSage's
// NeighborSelection UDF uses (Fig. 5).
func (g *Graph) RandomWalk(rng *tensor.RNG, start VertexID, hops int) []VertexID {
	path := make([]VertexID, 1, hops+1)
	path[0] = start
	cur := start
	for i := 0; i < hops; i++ {
		adj := g.OutNeighbors(cur)
		if len(adj) == 0 {
			break
		}
		cur = adj[rng.Intn(len(adj))]
		path = append(path, cur)
	}
	return path
}

// AppendTopKVisited runs numWalks random walks of hops steps from start and
// appends to dst the k most frequently visited vertices other than start
// itself, most-visited first — PinSage's importance-based neighborhood
// (§2.2). Ties break by smaller vertex ID for determinism. It walks first —
// the same RNG draws, in the same order, as numWalks RandomWalk calls —
// recording every visit other than start past dst's end, then counts those
// visits in visits: a per-vertex table the caller owns, all zero on entry
// and all zero again on return (the call clears exactly the entries it
// touched). With room in dst for numWalks*hops visits it allocates nothing.
func (g *Graph) AppendTopKVisited(dst []VertexID, rng *tensor.RNG, start VertexID, numWalks, hops, k int, visits []uint32) []VertexID {
	base := len(dst)
	for w := 0; w < numWalks; w++ {
		cur := start
		for i := 0; i < hops; i++ {
			adj := g.OutNeighbors(cur)
			if len(adj) == 0 {
				break
			}
			cur = adj[rng.Intn(len(adj))]
			if cur != start {
				dst = append(dst, cur)
			}
		}
	}
	// Count; seen, compacted in place over the visits, lists each vertex once.
	seen := dst[base:base]
	for _, v := range dst[base:] {
		if visits[v] == 0 {
			seen = append(seen, v)
		}
		visits[v]++
	}
	// One key per distinct vertex, count<<32 | ^id, whose integer order is
	// exactly (count desc, id asc); reading a count clears it. The keys live
	// on the stack up to 32 distinct vertices (PinSage's 10 walks of 3 hops
	// visit at most 30) and spill to the heap through append beyond.
	var buf [32]uint64
	keys := buf[:0]
	for _, v := range seen {
		keys = append(keys, uint64(visits[v])<<32|uint64(^uint32(v)))
		visits[v] = 0
	}
	// Partial selection sort: k passes, each taking the largest remaining
	// key to the front; the result overwrites the distinct list.
	n := min(max(k, 0), len(keys))
	for i := 0; i < n; i++ {
		at, best := i, keys[i]
		for j := i + 1; j < len(keys); j++ {
			if e := keys[j]; e > best {
				at, best = j, e
			}
		}
		keys[at] = keys[i]
		seen[i] = VertexID(^uint32(best))
	}
	return dst[:base+n]
}

// Metapath is an ordered sequence of vertex types; a metapath instance
// rooted at v is a path v = u0 -> u1 -> ... -> un whose vertex types match
// the sequence (§2.2, Fig. 2b).
type Metapath struct {
	Name  string
	Types []uint8
}

// Length returns the number of vertices in an instance of the metapath.
func (m Metapath) Length() int { return len(m.Types) }

// MetapathInstances finds every simple path (no repeated vertices) starting
// at root that matches mp, following out-edges. Each returned instance is
// the full vertex sequence including root. root's type must match
// mp.Types[0] or the result is empty. maxInstances bounds the search
// (0 means unlimited). Restricting to simple paths matches the paper's
// Fig. 2c, where vertex A has exactly 1 MP1 instance and 4 MP2 instances.
func (g *Graph) MetapathInstances(root VertexID, mp Metapath, maxInstances int) [][]VertexID {
	flat := g.AppendMetapathInstances(nil, root, mp, maxInstances)
	if len(flat) == 0 {
		return nil
	}
	n := mp.Length()
	out := make([][]VertexID, len(flat)/n)
	for i := range out {
		out[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return out
}

// AppendMetapathInstances appends MetapathInstances' result to dst as one
// flat run of mp.Length()-vertex instances, in the same depth-first order,
// and allocates nothing beyond dst's growth: the instance under
// construction lives in dst's tail.
func (g *Graph) AppendMetapathInstances(dst []VertexID, root VertexID, mp Metapath, maxInstances int) []VertexID {
	if len(mp.Types) == 0 || g.Type(root) != mp.Types[0] {
		return dst
	}
	if maxInstances <= 0 {
		maxInstances = -1
	}
	dst, _ = g.extendMetapath(append(dst, root), mp.Types, 1, maxInstances)
	return dst[:len(dst)-1]
}

// extendMetapath grows the partial instance held in dst's last depth
// entries. A completed instance stays in dst and is copied behind itself as
// the next partial instance, so on return dst ends with the caller's partial
// instance again. left counts the instances still wanted (negative: no
// bound) and is returned updated; the search stops when it reaches zero.
func (g *Graph) extendMetapath(dst []VertexID, types []uint8, depth, left int) ([]VertexID, int) {
	if depth == len(types) {
		return append(dst, dst[len(dst)-depth:]...), left - 1
	}
next:
	for _, u := range g.OutNeighbors(dst[len(dst)-1]) {
		if g.Type(u) != types[depth] {
			continue
		}
		for _, seen := range dst[len(dst)-depth:] {
			if seen == u {
				continue next
			}
		}
		dst, left = g.extendMetapath(append(dst, u), types, depth+1, left)
		dst = dst[:len(dst)-1]
		if left == 0 {
			break
		}
	}
	return dst, left
}

// Induce builds the subgraph induced on the given vertices (in order) and
// returns it with the global-to-local remap. Vertex types are preserved.
func (g *Graph) Induce(vertices []VertexID) (*Graph, map[VertexID]int32) {
	remap := make(map[VertexID]int32, len(vertices))
	for i, v := range vertices {
		remap[v] = int32(i)
	}
	b := NewBuilder(len(vertices))
	if g.NumTypes() > 1 {
		types := make([]uint8, len(vertices))
		for i, v := range vertices {
			types[i] = g.Type(v)
		}
		b.SetTypes(types, g.NumTypes())
	}
	for i, v := range vertices {
		for _, u := range g.OutNeighbors(v) {
			if j, ok := remap[u]; ok {
				b.AddEdge(VertexID(i), j)
			}
		}
	}
	return b.Build(), remap
}
