package nau

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/tensor"
)

// trickyGraph is a typed graph with every shape the walk and metapath
// kernels special-case: a hub (vertex 0: many in- and out-edges), sinks
// (v%11 == 5: no out-edge, walks stop early), self-loops (v%7 == 3: the
// v != start filter), multi-edges and low-degree vertices whose walks visit
// fewer than k distinct vertices. Types cycle 0,1,2.
func trickyGraph(n int, seed uint64) *graph.Graph {
	rng := tensor.NewRNG(seed)
	b := graph.NewBuilder(n)
	types := make([]uint8, n)
	for v := range types {
		types[v] = uint8(v % 3)
	}
	b.SetTypes(types, 3)
	for v := 1; v < n; v++ {
		if v%11 == 5 {
			continue
		}
		if v%7 == 3 {
			b.AddEdge(graph.VertexID(v), graph.VertexID(v))
		}
		if v%3 == 1 {
			b.AddEdge(graph.VertexID(v), 0)
		}
		for e := rng.Intn(4); e >= 0; e-- {
			u := graph.VertexID(rng.Intn(n))
			b.AddEdge(graph.VertexID(v), u)
			if rng.Intn(8) == 0 {
				b.AddEdge(graph.VertexID(v), u)
			}
		}
	}
	for e := 0; e < 40; e++ {
		b.AddEdge(0, graph.VertexID(rng.Intn(n)))
	}
	return b.Build()
}

type udfCase struct {
	name        string
	schema      *hdg.SchemaTree
	sel         Selector
	udf, oracle NeighborUDF // udf is sel.UDF()
}

func udfCases() []udfCase {
	flat := hdg.NewSchemaTree("vertex")
	three := hdg.NewSchemaTree("a", "b", "c")
	paths := []graph.Metapath{
		{Name: "012", Types: []uint8{0, 1, 2}},
		{Name: "0120", Types: []uint8{0, 1, 2, 0}},
		{Name: "02", Types: []uint8{0, 2}},
	}
	anchors := [][]graph.VertexID{{1, 2, 3}, {4}, {5, 6}}
	cases := []udfCase{
		{"randomwalk", flat, RandomWalkSelector(10, 3, 10), nil, oracleRandomWalkUDF(10, 3, 10)},
		{"randomwalk/k-beyond-visited", flat, RandomWalkSelector(3, 2, 50), nil, oracleRandomWalkUDF(3, 2, 50)},
		{"randomwalk/heap-scratch", flat, RandomWalkSelector(40, 4, 5), nil, oracleRandomWalkUDF(40, 4, 5)},
		{"metapath/bounded", three, MetapathSelector(paths, 3), nil, oracleMetapathUDF(paths, 3)},
		{"metapath/unbounded", three, MetapathSelector(paths, 0), nil, oracleMetapathUDF(paths, 0)},
		{"anchorset", three, AnchorSetSelector(anchors), nil, oracleAnchorSetUDF(anchors)},
		{"hopfrontier", three, HopFrontierSelector(3), nil, oracleHopFrontierUDF(3)},
	}
	for i := range cases {
		cases[i].udf = cases[i].sel.UDF()
	}
	return cases
}

// requireSameHDG fails unless h stores exactly the oracle's arrays.
func requireSameHDG(t *testing.T, h *hdg.HDG, o *oracleHDG) {
	t.Helper()
	if h.IsFlat() != o.flat {
		t.Fatalf("flat = %v, oracle %v", h.IsFlat(), o.flat)
	}
	if !slices.Equal(h.InstOffset, o.instOffset) {
		t.Fatalf("InstOffset differs from the oracle's")
	}
	if !slices.Equal(h.LeafOffset, o.leafOffset) || (h.LeafOffset == nil) != (o.leafOffset == nil) {
		t.Fatalf("LeafOffset differs from the oracle's")
	}
	if !slices.Equal(h.LeafIDs, o.leafIDs) {
		t.Fatalf("LeafIDs differ from the oracle's")
	}
}

// rootShapes returns the two root lists selection runs over: every vertex
// ascending (whole-graph training) and a shuffled subset (a cluster rank's
// or a mini-batch's roots).
func rootShapes(g *graph.Graph, seed uint64) map[string][]graph.VertexID {
	all := AllVertices(g)
	perm := tensor.NewRNG(seed).Perm(len(all))
	subset := make([]graph.VertexID, 0, len(all)*3/4)
	for _, i := range perm[:cap(subset)] {
		subset = append(subset, all[i])
	}
	return map[string][]graph.VertexID{"all": all, "shuffled-subset": subset}
}

// TestSelectionMatchesFrozenOracle is the bit-parity guard of the walk and
// metapath kernels, the selectors, both sinks of the driver and Build's
// in-order path: for every built-in selection, several seeds, both root
// shapes and every fan-out, the HDG the appending sink stitches from its
// arenas and the one Build makes of the record sink's output (the selector's
// NeighborUDF adapter) must both store exactly the arrays the frozen
// pre-rewrite path builds. The appending sink runs twice on the same arenas,
// the second time into the first result's storage.
func TestSelectionMatchesFrozenOracle(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g := trickyGraph(600, seed)
		seedFor := func(_ int, v graph.VertexID) uint64 { return seed ^ (uint64(v)+1)*0xbf58476d1ce4e5b9 }
		for shape, roots := range rootShapes(g, seed) {
			for _, c := range udfCases() {
				want, err := oracleBuild(c.schema, roots, oracleSelect(g, c.schema, c.oracle, roots, seedFor))
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 3, 7} {
					t.Run(fmt.Sprintf("seed%d/%s/%s/workers%d", seed, shape, c.name, workers), func(t *testing.T) {
						h, err := neighborSelectionSeeded(g, c.schema, c.udf, roots, seed, workers)
						if err != nil {
							t.Fatal(err)
						}
						requireSameHDG(t, h, want)
						var arenas []*arena
						var reuse *hdg.HDG
						for range 2 {
							if reuse, err = selectHDG(g, c.schema, c.sel, roots, seed, workers, &arenas, reuse); err != nil {
								t.Fatal(err)
							}
							requireSameHDG(t, reuse, want)
						}
					})
				}
			}
		}
	}
}

// TestWalkKernelMatchesListKernel holds the visit-table kernel to the
// stack-list kernel it replaced, root by root on the tricky graph, over the
// budgets the oracle cases use and one whose walks revisit a hub, with one
// table shared by every call.
func TestWalkKernelMatchesListKernel(t *testing.T) {
	g := trickyGraph(600, 12)
	visits := make([]uint32, g.NumVertices())
	var got []graph.VertexID
	for _, c := range []struct{ walks, hops, k int }{{10, 3, 10}, {3, 2, 50}, {40, 4, 5}, {100, 2, 3}} {
		for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
			got = g.AppendTopKVisited(got[:0], tensor.NewRNG(uint64(v)*7+1), v, c.walks, c.hops, c.k, visits)
			want := listTopKVisited(nil, g, tensor.NewRNG(uint64(v)*7+1), v, c.walks, c.hops, c.k)
			if !slices.Equal(got, want) {
				t.Fatalf("%+v from %d: %v, list kernel %v", c, v, got, want)
			}
		}
	}
	if slices.ContainsFunc(visits, func(n uint32) bool { return n != 0 }) {
		t.Fatal("visit table not all zero after the kernel calls")
	}
}

// TestAppendingSinkChecks: the appending sink rejects what Build rejects —
// a duplicate root, before any selection runs, and an instance type outside
// the schema — and leaves its arenas fit for the next call.
func TestAppendingSinkChecks(t *testing.T) {
	g := trickyGraph(200, 13)
	const es = 13
	var arenas []*arena
	flat := hdg.NewSchemaTree("vertex")
	if _, err := selectHDG(g, flat, RandomWalkSelector(10, 3, 10), []graph.VertexID{1, 2, 2, 3}, es, 2, &arenas, nil); err == nil ||
		err.Error() != "hdg: duplicate root 2" {
		t.Fatalf("duplicate root: %v", err)
	}
	if _, err := selectHDG(g, flat, HopFrontierSelector(3), AllVertices(g), es, 2, &arenas, nil); err == nil ||
		err.Error() != "hdg: record type 1 out of range [0,1)" {
		t.Fatalf("type out of range: %v", err)
	}
	c := udfCases()[0]
	roots := AllVertices(g)
	want, err := oracleBuild(c.schema, roots, oracleSelect(g, c.schema, c.oracle, roots, vertexSeeds(es)))
	if err != nil {
		t.Fatal(err)
	}
	h, err := selectHDG(g, c.schema, c.sel, roots, es, 2, &arenas, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameHDG(t, h, want)
}

// TestNeighborSelectionMatchesOracleStream covers the 5-argument entry
// point: one epoch seed drawn from the stream, kernel-parallelism fan-out.
func TestNeighborSelectionMatchesOracleStream(t *testing.T) {
	g := trickyGraph(600, 4)
	roots := AllVertices(g)
	c := udfCases()[0]
	h, err := NeighborSelection(g, c.schema, c.udf, roots, tensor.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleBuild(c.schema, roots, oracleSelect(g, c.schema, c.oracle, roots, vertexSeeds(tensor.NewRNG(77).Uint64())))
	if err != nil {
		t.Fatal(err)
	}
	requireSameHDG(t, h, want)
}

// TestBuildKeepsArbitraryOrderSemantics drives Build's fallback: records a
// UDF attributes to a different root than it was called with, types
// descending within a root, and a full shuffle must all build what the
// frozen Build built; and whichever path rejects a bad input must report
// the frozen Build's error.
func TestBuildKeepsArbitraryOrderSemantics(t *testing.T) {
	g := trickyGraph(200, 5)
	three := hdg.NewSchemaTree("a", "b", "c")
	n := graph.VertexID(g.NumVertices())
	misattributing := func(g *graph.Graph, _ *hdg.SchemaTree, v graph.VertexID, rng *tensor.RNG) []hdg.Record {
		other := (v + 1 + graph.VertexID(rng.Intn(3))) % n
		return []hdg.Record{
			{Root: other, Nei: []graph.VertexID{v, other}, Type: 2},
			{Root: v, Nei: []graph.VertexID{v}, Type: 1},
			{Root: other, Nei: []graph.VertexID{other}, Type: 0},
		}
	}
	const es = 5
	for shape, roots := range map[string][]graph.VertexID{"all": AllVertices(g), "reversed": reversed(AllVertices(g))} {
		want, err := oracleBuild(three, roots, oracleSelect(g, three, misattributing, roots, vertexSeeds(es)))
		if err != nil {
			t.Fatal(err)
		}
		h, err := neighborSelectionSeeded(g, three, misattributing, roots, es, 3)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		requireSameHDG(t, h, want)
	}

	roots := rootShapes(g, 5)["shuffled-subset"]
	c := udfCases()[3]
	inOrder := SelectRecords(g, c.schema, c.udf, roots, es, 2)
	shuffled := slices.Clone(inOrder)
	for i, j := range tensor.NewRNG(6).Perm(len(shuffled)) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	want, err := oracleBuild(c.schema, roots, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hdg.Build(c.schema, roots, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	requireSameHDG(t, h, want)

	// Rejections, each met once on the in-order path (bad record last) and
	// once behind an out-of-order prefix (first two records swapped).
	last := len(inOrder) - 1
	bad := map[string]func(recs []hdg.Record, roots []graph.VertexID) ([]hdg.Record, []graph.VertexID){
		"unknown root": func(recs []hdg.Record, roots []graph.VertexID) ([]hdg.Record, []graph.VertexID) {
			recs[last].Root = n + 7
			return recs, roots
		},
		"type out of range": func(recs []hdg.Record, roots []graph.VertexID) ([]hdg.Record, []graph.VertexID) {
			recs[last].Type = 3
			return recs, roots
		},
		"negative type": func(recs []hdg.Record, roots []graph.VertexID) ([]hdg.Record, []graph.VertexID) {
			recs[last].Type = -1
			return recs, roots
		},
		"empty Nei": func(recs []hdg.Record, roots []graph.VertexID) ([]hdg.Record, []graph.VertexID) {
			recs[last].Nei = nil
			return recs, roots
		},
		"duplicate root": func(recs []hdg.Record, roots []graph.VertexID) ([]hdg.Record, []graph.VertexID) {
			return recs, append(slices.Clone(roots), roots[0])
		},
		"duplicate root, ascending but for it": func(recs []hdg.Record, _ []graph.VertexID) ([]hdg.Record, []graph.VertexID) {
			return nil, []graph.VertexID{1, 2, 2, 3}
		},
	}
	for name, corrupt := range bad {
		for _, swapped := range []bool{false, true} {
			recs, rs := corrupt(slices.Clone(inOrder), roots)
			if swapped && len(recs) > 1 {
				recs[0], recs[1] = recs[1], recs[0]
			}
			_, wantErr := oracleBuild(c.schema, rs, recs)
			_, err := hdg.Build(c.schema, rs, recs)
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s (swapped=%v): Build error %v, frozen Build %v", name, swapped, err, wantErr)
			}
		}
	}
}

func reversed(vs []graph.VertexID) []graph.VertexID {
	out := slices.Clone(vs)
	slices.Reverse(out)
	return out
}

// TestRecordsDoNotBleedIntoEachOther pins the aliasing contract: a UDF's
// records may share one leaf backing, so each Nei is capacity-limited and
// an append by a consumer reallocates instead of overwriting a neighbour.
func TestRecordsDoNotBleedIntoEachOther(t *testing.T) {
	g := trickyGraph(600, 8)
	for _, c := range udfCases() {
		for _, v := range []graph.VertexID{0, 1, 3, 6, 9} {
			recs := c.udf(g, c.schema, v, tensor.NewRNG(uint64(v)))
			before := make([][]graph.VertexID, len(recs))
			for i, r := range recs {
				before[i] = slices.Clone(r.Nei)
			}
			for i := range recs {
				_ = append(recs[i].Nei, -1)
			}
			for i, r := range recs {
				if !slices.Equal(r.Nei, before[i]) {
					t.Fatalf("%s root %d: appending to another record's Nei changed record %d: %v -> %v",
						c.name, v, i, before[i], r.Nei)
				}
			}
		}
	}
}

// TestNeighborSelectionAllocationBudget keeps the map, the per-walk path
// slices and the per-record leaf slices from creeping back. PinSage
// selection over N roots through the record sink may allocate the adapter's
// two slices per root (the records and their leaf backing), a constant per
// worker and a constant for the driver and Build. Through the appending
// sink, on arenas a first call grew, it allocates O(workers) and nothing per
// root: the fan-out, the HDG header and — unless it is given an old HDG's
// storage to write over — the HDG's four arrays. The record sink's budget is
// not checked under the race detector, whose sync.Pool drops a quarter of
// its Puts (each drop costs the adapter a fresh arena); the appending sink's
// arenas are the caller's and its budget holds in every build.
func TestNeighborSelectionAllocationBudget(t *testing.T) {
	g := trickyGraph(2000, 9)
	roots := AllVertices(g)
	schema, sel := hdg.NewSchemaTree("vertex"), RandomWalkSelector(10, 3, 10)
	udf := sel.UDF()
	const es = 9
	for _, workers := range []int{1, 4} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := neighborSelectionSeeded(g, schema, udf, roots, es, workers); err != nil {
				t.Fatal(err)
			}
		})
		if budget := float64(2*len(roots) + 16*workers + 32); allocs > budget && !raceEnabled {
			t.Fatalf("record sink, workers=%d: %.0f allocations for %d roots, budget %.0f", workers, allocs, len(roots), budget)
		}
		var arenas []*arena
		h, err := selectHDG(g, schema, sel, roots, es, workers, &arenas, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, reuse := range []bool{false, true} {
			allocs = testing.AllocsPerRun(5, func() {
				var into *hdg.HDG
				if reuse {
					into = h
				}
				if h, err = selectHDG(g, schema, sel, roots, es, workers, &arenas, into); err != nil {
					t.Fatal(err)
				}
			})
			if budget := float64(4*workers + 8); allocs > budget {
				t.Fatalf("appending sink, workers=%d, reuse=%v: %.0f allocations for %d roots, budget %.0f",
					workers, reuse, allocs, len(roots), budget)
			}
		}
	}
}

// TestSelectionSteadyStateAllocs: once a Selection has rotated through both
// of its HDGs, a Select — and the flat level its context refills over the new
// HDG — allocates a handful of objects (the fan-out's goroutines, the HDG
// header) and no bytes that grow with the graph: the arenas, both HDGs'
// arrays and both flat levels are written over in place. The same budget
// holds at 2 000 and at 8 000 vertices; each vertex's walks differ from one
// selection to the next, so every call writes new contents.
func TestSelectionSteadyStateAllocs(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(2)
	const maxObjects, maxBytes = 24, 2 << 10
	layer := newWalkLayer(4, 8, true, tensor.NewRNG(1))
	for _, n := range []int{2000, 8000} {
		g := trickyGraph(n, 14)
		roots := AllVertices(g)
		ctx := &Context{Graph: g, NumFeatureRows: n}
		var s Selection
		var epoch int
		selectOnce := func() {
			epoch++
			if err := s.Select(ctx, g, layer, roots, EpochSeed(1, epoch)); err != nil {
				t.Fatal(err)
			}
			if ctx.FlatAdjacency().NumDst != n {
				t.Fatal("the context does not read the new HDG")
			}
		}
		for range 4 {
			selectOnce()
		}
		const runs = 9
		objects, bytes := make([]float64, runs), make([]float64, runs)
		for i := range runs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			selectOnce()
			runtime.ReadMemStats(&after)
			objects[i], bytes[i] = float64(after.Mallocs-before.Mallocs), float64(after.TotalAlloc-before.TotalAlloc)
		}
		// The median: a selection that visits more leaves than any before it
		// grows an array once, as a warm-up would have.
		slices.Sort(objects)
		slices.Sort(bytes)
		o, b := objects[runs/2], bytes[runs/2]
		t.Logf("V=%d: %.0f objects, %.0f bytes per Select", n, o, b)
		if o > maxObjects || b > maxBytes {
			t.Fatalf("V=%d: a warm Select allocates %.0f objects / %.0f bytes, budget %d / %d", n, o, b, maxObjects, maxBytes)
		}
	}
}

// TestBuildSizesLeafIDsToTheRecords keeps Build from reserving leaf storage
// by extrapolating one instance's length: HopFrontier instances vary in
// length and the first multi-leaf one belongs to the hub (vertex 0), so any
// such guess over-reserves by orders of magnitude, and a CacheForever HDG
// would hold that backing for the whole run.
func TestBuildSizesLeafIDsToTheRecords(t *testing.T) {
	g := trickyGraph(2000, 10)
	h, err := neighborSelectionSeeded(g, hdg.NewSchemaTree("a", "b", "c"), HopFrontierUDF(1), AllVertices(g), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if first, mean := len(h.Leaves(0)), len(h.LeafIDs)/h.NumInstances(); first < 4*mean {
		t.Fatalf("fixture lost its hub: first instance has %d leaves, mean %d", first, mean)
	}
	if c, n := cap(h.LeafIDs), len(h.LeafIDs); c > n+n/4 {
		t.Fatalf("cap(LeafIDs) = %d for %d leaves", c, n)
	}
}

// TestRejectedSelectionLeavesRNGAlone: a call without a schema or a UDF
// fails before its epoch seed is drawn from the caller's stream.
func TestRejectedSelectionLeavesRNGAlone(t *testing.T) {
	g := trickyGraph(50, 11)
	rng := tensor.NewRNG(5)
	if _, err := NeighborSelection(g, nil, RandomWalkUDF(1, 1, 1), AllVertices(g), rng); err == nil {
		t.Fatal("nil schema accepted")
	}
	if _, err := NeighborSelection(g, hdg.NewSchemaTree("vertex"), nil, AllVertices(g), rng); err == nil {
		t.Fatal("nil UDF accepted")
	}
	if got, want := rng.Uint64(), tensor.NewRNG(5).Uint64(); got != want {
		t.Fatal("a rejected NeighborSelection advanced the caller's RNG")
	}
}
