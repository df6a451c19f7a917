package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// samplePaperGraph builds the sample graph of the paper's Fig. 2a:
// 9 vertices A..I with three types (colors). Edges are undirected in the
// figure; we add both directions.
//
//	A=0 B=1 C=2 D=3 E=4 F=5 G=6 H=7 I=8
//	Types chosen so the paper's Fig. 2c holds: A has exactly one MP1
//	instance (A,D,C) and four MP2 instances (A,E,B), (A,F,G), (A,H,G),
//	(A,H,I). green=0: A,B,G,I; purple=1: C,E,F,H; yellow=2: D.
func samplePaperGraph() *Graph {
	b := NewBuilder(9)
	types := []uint8{0, 0, 1, 2, 1, 1, 0, 1, 0}
	b.SetTypes(types, 3)
	edges := [][2]VertexID{
		{0, 3}, {0, 4}, {0, 5}, {0, 7}, // A-D, A-E, A-F, A-H
		{3, 2}, // D-C
		{4, 1}, // E-B
		{5, 6}, // F-G
		{7, 6}, // H-G
		{7, 8}, // H-I
		{1, 2}, // B-C
	}
	for _, e := range edges {
		b.AddUndirected(e[0], e[1])
	}
	return b.Build()
}

func TestBuildBasics(t *testing.T) {
	g := samplePaperGraph()
	if g.NumVertices() != 9 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 20 { // 10 undirected edges
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	// A's direct neighbors: D, E, F, H (paper: N(A) = {D,E,F,H} for GCN).
	adjA := g.OutNeighbors(0)
	want := []VertexID{3, 4, 5, 7}
	if len(adjA) != len(want) {
		t.Fatalf("A neighbors = %v", adjA)
	}
	for i := range want {
		if adjA[i] != want[i] {
			t.Fatalf("A neighbors = %v, want %v", adjA, want)
		}
	}
	if g.OutDegree(0) != 4 || g.InDegree(0) != 4 {
		t.Fatalf("degrees of A: out=%d in=%d", g.OutDegree(0), g.InDegree(0))
	}
}

func TestHasEdge(t *testing.T) {
	g := samplePaperGraph()
	if !g.HasEdge(0, 3) || !g.HasEdge(3, 0) {
		t.Fatal("A-D should exist both ways")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("A-C must not exist (C is an *indirect* neighbor)")
	}
}

func TestTypes(t *testing.T) {
	g := samplePaperGraph()
	if g.NumTypes() != 3 {
		t.Fatalf("NumTypes = %d", g.NumTypes())
	}
	if g.Type(0) != 0 || g.Type(3) != 2 || g.Type(7) != 1 {
		t.Fatal("vertex types wrong")
	}
	// Homogeneous graph defaults to a single type 0.
	h := NewBuilder(2)
	h.AddEdge(0, 1)
	hg := h.Build()
	if hg.NumTypes() != 1 || hg.Type(1) != 0 {
		t.Fatal("homogeneous type defaults wrong")
	}
}

func TestEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestRandomWalkStaysOnEdges(t *testing.T) {
	g := samplePaperGraph()
	rng := tensor.NewRNG(1)
	for i := 0; i < 100; i++ {
		path := g.RandomWalk(rng, 0, 5)
		if path[0] != 0 {
			t.Fatal("walk must start at start")
		}
		for j := 1; j < len(path); j++ {
			if !g.HasEdge(path[j-1], path[j]) {
				t.Fatalf("walk used non-edge %d->%d", path[j-1], path[j])
			}
		}
	}
}

func TestRandomWalkStopsAtSink(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1) // 1 is a sink
	g := b.Build()
	path := g.RandomWalk(tensor.NewRNG(2), 0, 10)
	if len(path) != 2 || path[1] != 1 {
		t.Fatalf("walk from sink-adjacent vertex = %v", path)
	}
}

func TestTopKVisited(t *testing.T) {
	g := samplePaperGraph()
	visits := make([]uint32, g.NumVertices())
	top := g.AppendTopKVisited(nil, tensor.NewRNG(3), 0, 50, 3, 2, visits)
	if len(top) != 2 {
		t.Fatalf("AppendTopKVisited returned %d", len(top))
	}
	for _, v := range top {
		if v == 0 {
			t.Fatal("start vertex must be excluded")
		}
	}
	// The paper's example: from A, the top-2 by visit count are C and G
	// (both 2 hops away through 2 distinct paths each... C via D and B->? )
	// With enough walks the high-traffic indirect vertices dominate; just
	// check determinism here.
	top2 := g.AppendTopKVisited(nil, tensor.NewRNG(3), 0, 50, 3, 2, visits)
	if top[0] != top2[0] || top[1] != top2[1] {
		t.Fatal("AppendTopKVisited must be deterministic for a fixed seed")
	}
}

// TestTopKVisitedMatchesCountingWalks rebuilds the ranking from RandomWalk
// paths drawn off an identically seeded RNG — the kernel walks in place, so
// this pins its draw order, the early stop at sinks, the start filter and
// the (count desc, id asc) order.
func TestTopKVisitedMatchesCountingWalks(t *testing.T) {
	g := samplePaperGraph()
	visits := make([]uint32, g.NumVertices())
	for _, c := range []struct{ walks, hops, k int }{{10, 3, 10}, {50, 3, 2}, {40, 4, 3}, {3, 2, 50}, {5, 3, 0}} {
		for start := VertexID(0); int(start) < g.NumVertices(); start++ {
			rng := tensor.NewRNG(uint64(start) + 1)
			counts := map[VertexID]int{}
			for w := 0; w < c.walks; w++ {
				for _, v := range g.RandomWalk(rng, start, c.hops)[1:] {
					if v != start {
						counts[v]++
					}
				}
			}
			var want []VertexID
			for v := range counts {
				want = append(want, v)
			}
			slices.SortFunc(want, func(a, b VertexID) int {
				if counts[a] != counts[b] {
					return counts[b] - counts[a]
				}
				return int(a - b)
			})
			want = want[:min(c.k, len(want))]
			got := g.AppendTopKVisited(nil, tensor.NewRNG(uint64(start)+1), start, c.walks, c.hops, c.k, visits)
			if !slices.Equal(got, want) {
				t.Fatalf("%+v from %d: AppendTopKVisited = %v, want %v", c, start, got, want)
			}
		}
	}
}

// TestAppendKernelsDoNotAllocate is the point of the Append* kernels: with
// room in dst (for the walk kernel: its numWalks*hops visits) and a visit
// table, a PinSage-sized walk budget and a metapath search touch the heap
// not at all.
func TestAppendKernelsDoNotAllocate(t *testing.T) {
	g := samplePaperGraph()
	rng := tensor.NewRNG(5)
	dst := make([]VertexID, 0, 64)
	visits := make([]uint32, g.NumVertices())
	mp2 := Metapath{Name: "MP2", Types: []uint8{0, 1, 0}}
	if n := testing.AllocsPerRun(100, func() {
		dst = g.AppendTopKVisited(dst[:0], rng, 0, 10, 3, 10, visits)
	}); n != 0 {
		t.Fatalf("AppendTopKVisited allocated %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		dst = g.AppendMetapathInstances(dst[:0], 0, mp2, 0)
	}); n != 0 || len(dst) != 12 {
		t.Fatalf("AppendMetapathInstances: %v allocations, %d vertices (want 0, 12)", n, len(dst))
	}
}

// TestVisitTableIsZeroOnReturn: AppendTopKVisited counts in the caller's
// table and must hand it back all zero — whatever the walks met: sinks that
// end a walk early, self-loops, walks that return to start (not counted,
// so never marked), budgets whose visits repeat, and k = 0. A second call
// on the same table must give what a fresh table gives.
func TestVisitTableIsZeroOnReturn(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // back to start
	b.AddEdge(1, 2)
	b.AddEdge(2, 2) // self-loop
	b.AddEdge(2, 3)
	b.AddEdge(0, 4)
	b.AddEdge(4, 5) // 5 is a sink
	b.AddEdge(3, 0)
	g := b.Build()
	visits := make([]uint32, g.NumVertices())
	for _, c := range []struct{ walks, hops, k int }{{10, 3, 10}, {40, 4, 2}, {5, 6, 0}, {1, 1, 1}} {
		for start := VertexID(0); int(start) < g.NumVertices(); start++ {
			got := g.AppendTopKVisited(nil, tensor.NewRNG(uint64(start)), start, c.walks, c.hops, c.k, visits)
			for v, n := range visits {
				if n != 0 {
					t.Fatalf("%+v from %d: visits[%d] = %d on return", c, start, v, n)
				}
			}
			want := g.AppendTopKVisited(nil, tensor.NewRNG(uint64(start)), start, c.walks, c.hops, c.k, make([]uint32, g.NumVertices()))
			if !slices.Equal(got, want) {
				t.Fatalf("%+v from %d: reused table gave %v, fresh table %v", c, start, got, want)
			}
		}
	}
}

func TestMetapathInstances(t *testing.T) {
	g := samplePaperGraph()
	// MP1 (paper Fig. 2b): green -> yellow -> purple. From A exactly one
	// instance, p1 = (A, D, C).
	mp1 := Metapath{Name: "MP1", Types: []uint8{0, 2, 1}}
	inst := g.MetapathInstances(0, mp1, 0)
	if len(inst) != 1 {
		t.Fatalf("MP1 instances from A = %v, want exactly (A,D,C)", inst)
	}
	if p := inst[0]; p[0] != 0 || p[1] != 3 || p[2] != 2 {
		t.Fatalf("MP1 instance = %v, want [0 3 2]", p)
	}
	// MP2: green -> purple -> green. From A four instances (Fig. 2c):
	// (A,E,B), (A,F,G), (A,H,G), (A,H,I).
	mp2 := Metapath{Name: "MP2", Types: []uint8{0, 1, 0}}
	inst2 := g.MetapathInstances(0, mp2, 0)
	if len(inst2) != 4 {
		t.Fatalf("MP2 instances from A = %v, want 4", inst2)
	}
	wantEnds := map[[2]VertexID]bool{{4, 1}: true, {5, 6}: true, {7, 6}: true, {7, 8}: true}
	for _, p := range inst2 {
		if p[0] != 0 || !wantEnds[[2]VertexID{p[1], p[2]}] {
			t.Fatalf("unexpected MP2 instance %v", p)
		}
	}
	// Root type mismatch yields nothing.
	if got := g.MetapathInstances(2, mp1, 0); got != nil {
		t.Fatalf("wrong-type root should match nothing: %v", got)
	}
}

func TestMetapathInstancesLimit(t *testing.T) {
	g := samplePaperGraph()
	mp := Metapath{Name: "MP1", Types: []uint8{0, 2, 1}}
	if got := g.MetapathInstances(0, mp, 1); len(got) != 1 {
		t.Fatalf("limit ignored: %d instances", len(got))
	}
}

func TestNumBytesPositive(t *testing.T) {
	g := samplePaperGraph()
	if g.NumBytes() <= 0 {
		t.Fatal("NumBytes must be positive")
	}
}

// Property: in-degree of v equals the number of (u,v) edges; sum of
// out-degrees equals edge count; adjacency is sorted.
func TestCSRCSCConsistencyQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 2 + rng.Intn(20)
		b := NewBuilder(n)
		m := rng.Intn(60)
		type edge struct{ s, d VertexID }
		edges := make([]edge, 0, m)
		for i := 0; i < m; i++ {
			e := edge{VertexID(rng.Intn(n)), VertexID(rng.Intn(n))}
			edges = append(edges, e)
			b.AddEdge(e.s, e.d)
		}
		g := b.Build()
		if g.NumEdges() != int64(m) {
			return false
		}
		var sumOut int64
		for v := 0; v < n; v++ {
			sumOut += int64(g.OutDegree(VertexID(v)))
			adj := g.OutNeighbors(VertexID(v))
			for i := 1; i < len(adj); i++ {
				if adj[i-1] > adj[i] {
					return false
				}
			}
			// Every out-edge appears as an in-edge at its target.
			for _, u := range adj {
				found := 0
				for _, w := range g.InNeighbors(u) {
					if w == VertexID(v) {
						found++
					}
				}
				if found == 0 {
					return false
				}
			}
		}
		return sumOut == int64(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInduce(t *testing.T) {
	g := samplePaperGraph()
	verts := []VertexID{0, 3, 2} // A, D, C
	sub, remap := g.Induce(verts)
	if sub.NumVertices() != 3 {
		t.Fatalf("vertices = %d", sub.NumVertices())
	}
	// A-D and D-C edges survive (both directions); A-C does not exist.
	if !sub.HasEdge(remap[0], remap[3]) || !sub.HasEdge(remap[3], remap[2]) {
		t.Fatal("induced edges missing")
	}
	if sub.HasEdge(remap[0], remap[2]) {
		t.Fatal("spurious induced edge A-C")
	}
	// Types preserved.
	if sub.Type(remap[3]) != g.Type(3) || sub.NumTypes() != g.NumTypes() {
		t.Fatal("types not preserved")
	}
}
