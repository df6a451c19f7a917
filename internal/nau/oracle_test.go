package nau

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/tensor"
)

// This file is the parity oracle for the selection path: a frozen copy of
// the map-based walk kernels, the per-record-allocating UDFs, the
// sequential driver and the counting-sort Build, exactly as they stood
// before the scratch kernels replaced them — and of the stack-list walk
// kernel as it stood before the visit table replaced it. Nothing here may be
// "fixed" or sped up — the tests in select_test.go require the live path to
// reproduce its output bit for bit. It reaches the graph only through
// OutNeighbors and Type, so it shares no code with what it checks.

func oracleRandomWalk(g *graph.Graph, rng *tensor.RNG, start graph.VertexID, hops int) []graph.VertexID {
	path := make([]graph.VertexID, 1, hops+1)
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

func oracleTopKVisited(g *graph.Graph, rng *tensor.RNG, start graph.VertexID, numWalks, hops, k int) []graph.VertexID {
	counts := make(map[graph.VertexID]int)
	for w := 0; w < numWalks; w++ {
		for _, v := range oracleRandomWalk(g, rng, start, hops)[1:] {
			if v != start {
				counts[v]++
			}
		}
	}
	type vc struct {
		v graph.VertexID
		c int
	}
	all := make([]vc, 0, len(counts))
	for v, c := range counts {
		all = append(all, vc{v, c})
	}
	// Selection by (count desc, id asc).
	for i := 0; i < len(all) && i < k; i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].c > all[best].c || (all[j].c == all[best].c && all[j].v < all[best].v) {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
	}
	if len(all) > k {
		all = all[:k]
	}
	out := make([]graph.VertexID, len(all))
	for i, e := range all {
		out[i] = e.v
	}
	return out
}

// listTopKVisited is the walk kernel the visit table replaced, frozen: it
// counts each visit as it happens, in a list of (count, ^id) entries on its
// stack searched linearly, then selects the top k the same way.
func listTopKVisited(dst []graph.VertexID, g *graph.Graph, rng *tensor.RNG, start graph.VertexID, numWalks, hops, k int) []graph.VertexID {
	var buf [64]uint64
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
	for i := 0; i < len(seen) && i < k; i++ {
		best, at := seen[i], i
		for j := i + 1; j < len(seen); j++ {
			if e := seen[j]; e > best {
				best, at = e, j
			}
		}
		seen[at] = seen[i]
		seen[i] = best
		dst = append(dst, graph.VertexID(^uint32(best)))
	}
	return dst
}

func oracleMetapathInstances(g *graph.Graph, root graph.VertexID, mp graph.Metapath, maxInstances int) [][]graph.VertexID {
	if len(mp.Types) == 0 || g.Type(root) != mp.Types[0] {
		return nil
	}
	var out [][]graph.VertexID
	path := make([]graph.VertexID, 1, len(mp.Types))
	path[0] = root
	var dfs func(depth int) bool
	dfs = func(depth int) bool {
		if depth == len(mp.Types) {
			out = append(out, append([]graph.VertexID(nil), path...))
			return maxInstances > 0 && len(out) >= maxInstances
		}
	next:
		for _, u := range g.OutNeighbors(path[depth-1]) {
			if g.Type(u) != mp.Types[depth] {
				continue
			}
			for _, seen := range path {
				if seen == u {
					continue next
				}
			}
			path = append(path, u)
			stop := dfs(depth + 1)
			path = path[:len(path)-1]
			if stop {
				return true
			}
		}
		return false
	}
	dfs(1)
	return out
}

func oracleRandomWalkUDF(numWalks, hops, topK int) NeighborUDF {
	return func(g *graph.Graph, _ *hdg.SchemaTree, v graph.VertexID, rng *tensor.RNG) []hdg.Record {
		top := oracleTopKVisited(g, rng, v, numWalks, hops, topK)
		recs := make([]hdg.Record, len(top))
		for i, u := range top {
			recs[i] = hdg.Record{Root: v, Nei: []graph.VertexID{u}, Type: 0}
		}
		return recs
	}
}

func oracleMetapathUDF(paths []graph.Metapath, maxInstances int) NeighborUDF {
	return func(g *graph.Graph, _ *hdg.SchemaTree, v graph.VertexID, _ *tensor.RNG) []hdg.Record {
		var recs []hdg.Record
		for t, mp := range paths {
			for _, inst := range oracleMetapathInstances(g, v, mp, maxInstances) {
				recs = append(recs, hdg.Record{Root: v, Nei: inst, Type: t})
			}
		}
		return recs
	}
}

func oracleAnchorSetUDF(anchors [][]graph.VertexID) NeighborUDF {
	return func(_ *graph.Graph, _ *hdg.SchemaTree, v graph.VertexID, _ *tensor.RNG) []hdg.Record {
		recs := make([]hdg.Record, len(anchors))
		for i, set := range anchors {
			recs[i] = hdg.Record{Root: v, Nei: set, Type: i}
		}
		return recs
	}
}

func oracleHopFrontierUDF(hops int) NeighborUDF {
	return func(g *graph.Graph, _ *hdg.SchemaTree, v graph.VertexID, _ *tensor.RNG) []hdg.Record {
		var recs []hdg.Record
		visited := map[graph.VertexID]bool{v: true}
		frontier := []graph.VertexID{v}
		for h := 1; h <= hops; h++ {
			var next []graph.VertexID
			for _, u := range frontier {
				for _, w := range g.OutNeighbors(u) {
					if !visited[w] {
						visited[w] = true
						next = append(next, w)
					}
				}
			}
			if len(next) == 0 {
				break
			}
			recs = append(recs, hdg.Record{Root: v, Nei: append([]graph.VertexID(nil), next...), Type: h - 1})
			frontier = next
		}
		return recs
	}
}

// oracleSelect is the old driver with the fan-out removed: one fresh RNG
// per root, records concatenated in root order.
func oracleSelect(g *graph.Graph, schema *hdg.SchemaTree, udf NeighborUDF, roots []graph.VertexID, seedFor func(i int, v graph.VertexID) uint64) []hdg.Record {
	var records []hdg.Record
	for i, v := range roots {
		records = append(records, udf(g, schema, v, tensor.NewRNG(seedFor(i, v)))...)
	}
	return records
}

// vertexSeeds is VertexSeed at epochSeed as an oracleSelect seed function.
func vertexSeeds(epochSeed uint64) func(int, graph.VertexID) uint64 {
	return func(_ int, v graph.VertexID) uint64 { return VertexSeed(epochSeed, v) }
}

// oracleHDG holds the storage arrays of the old hdg.Build.
type oracleHDG struct {
	flat       bool
	instOffset []int32
	leafOffset []int32
	leafIDs    []graph.VertexID
}

func oracleBuild(schema *hdg.SchemaTree, roots []graph.VertexID, records []hdg.Record) (*oracleHDG, error) {
	h := &oracleHDG{flat: true}
	rootRank := make(map[graph.VertexID]int32, len(roots))
	for i, r := range roots {
		if _, dup := rootRank[r]; dup {
			return nil, fmt.Errorf("hdg: duplicate root %d", r)
		}
		rootRank[r] = int32(i)
	}
	T := schema.NumTypes()
	counts := make([]int32, len(roots)*T+1)
	for _, rec := range records {
		rank, ok := rootRank[rec.Root]
		if !ok {
			return nil, fmt.Errorf("hdg: record for unknown root %d", rec.Root)
		}
		if rec.Type < 0 || rec.Type >= T {
			return nil, fmt.Errorf("hdg: record type %d out of range [0,%d)", rec.Type, T)
		}
		if len(rec.Nei) == 0 {
			return nil, fmt.Errorf("hdg: record for root %d has no leaves", rec.Root)
		}
		if len(rec.Nei) > 1 {
			h.flat = false
		}
		counts[int(rank)*T+rec.Type+1]++
	}
	h.instOffset = counts
	for i := 1; i < len(h.instOffset); i++ {
		h.instOffset[i] += h.instOffset[i-1]
	}
	ordered := make([]*hdg.Record, len(records))
	next := make([]int32, len(roots)*T)
	copy(next, h.instOffset[:len(roots)*T])
	for i := range records {
		rec := &records[i]
		slot := int(rootRank[rec.Root])*T + rec.Type
		ordered[next[slot]] = rec
		next[slot]++
	}
	if h.flat {
		h.leafIDs = make([]graph.VertexID, len(ordered))
		for i, rec := range ordered {
			h.leafIDs[i] = rec.Nei[0]
		}
	} else {
		h.leafOffset = make([]int32, len(ordered)+1)
		total := 0
		for i, rec := range ordered {
			total += len(rec.Nei)
			h.leafOffset[i+1] = int32(total)
		}
		h.leafIDs = make([]graph.VertexID, 0, total)
		for _, rec := range ordered {
			h.leafIDs = append(h.leafIDs, rec.Nei...)
		}
	}
	return h, nil
}
