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

// TopKVisited runs numWalks random walks of hops steps from start and
// returns the k most frequently visited vertices other than start itself,
// most-visited first — PinSage's importance-based neighborhood (§2.2).
// Ties break by smaller vertex ID for determinism.
func (g *Graph) TopKVisited(rng *tensor.RNG, start VertexID, numWalks, hops, k int) []VertexID {
	return g.AppendTopKVisited(nil, rng, start, numWalks, hops, k)
}

// walkScratch is how many distinct vertices AppendTopKVisited counts on its
// own stack frame; PinSage's 10 walks of 3 hops visit at most 30. A larger
// walk budget spills to the heap through append.
const walkScratch = 64

// AppendTopKVisited appends TopKVisited's result to dst without allocating:
// it walks in place (the same RNG draws, in the same order, as numWalks
// RandomWalk calls) and counts visits in a short list on its stack instead
// of a map. The list is searched linearly, which beats hashing up to a few
// hundred distinct vertices per root and is quadratic beyond.
func (g *Graph) AppendTopKVisited(dst []VertexID, rng *tensor.RNG, start VertexID, numWalks, hops, k int) []VertexID {
	// One entry per distinct visited vertex: visit count in the high half,
	// complemented ID in the low half, so a larger entry ranks earlier in
	// exactly the (count desc, id asc) order.
	var buf [walkScratch]uint64
	seen := buf[:0]
	for w := 0; w < numWalks; w++ {
		cur := start
	hop:
		for i := 0; i < hops; i++ {
			adj := g.OutNeighbors(cur)
			if len(adj) == 0 {
				break
			}
			cur = adj[rng.Intn(len(adj))]
			if cur == start {
				continue
			}
			id := ^uint32(cur)
			for j, e := range seen {
				if uint32(e) == id {
					seen[j] = e + 1<<32
					continue hop
				}
			}
			seen = append(seen, 1<<32|uint64(id))
		}
	}
	// Partial selection sort: k passes, each moving the largest remaining
	// entry to the front.
	for i := 0; i < len(seen) && i < k; i++ {
		best, at := seen[i], i
		for j := i + 1; j < len(seen); j++ {
			if e := seen[j]; e > best {
				best, at = e, j
			}
		}
		seen[at] = seen[i]
		seen[i] = best
		dst = append(dst, VertexID(^uint32(best)))
	}
	return dst
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
