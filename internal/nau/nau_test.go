package nau

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func ringGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%n))
	}
	return b.Build()
}

func TestNeighborSelectionBuildsHDG(t *testing.T) {
	g := ringGraph(6)
	schema := hdg.NewSchemaTree("vertex")
	udf := func(g *graph.Graph, _ *hdg.SchemaTree, v graph.VertexID, _ *tensor.RNG) []hdg.Record {
		var recs []hdg.Record
		for _, u := range g.OutNeighbors(v) {
			recs = append(recs, hdg.Record{Root: v, Nei: []graph.VertexID{u}, Type: 0})
		}
		return recs
	}
	h, err := NeighborSelection(g, schema, udf, AllVertices(g), tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumRoots() != 6 || h.NumInstances() != 6 {
		t.Fatalf("HDG dims: roots=%d instances=%d", h.NumRoots(), h.NumInstances())
	}
	if !h.IsFlat() {
		t.Fatal("single-vertex neighbors must be flat")
	}
}

func TestNeighborSelectionDeterministicUnderParallelism(t *testing.T) {
	g := ringGraph(100)
	schema := hdg.NewSchemaTree("vertex")
	// UDF consumes randomness; per-vertex seeds must make the result
	// independent of scheduling.
	udf := func(g *graph.Graph, _ *hdg.SchemaTree, v graph.VertexID, rng *tensor.RNG) []hdg.Record {
		u := g.OutNeighbors(v)[rng.Intn(len(g.OutNeighbors(v)))]
		return []hdg.Record{{Root: v, Nei: []graph.VertexID{u}, Type: 0}}
	}
	h1, err := NeighborSelection(g, schema, udf, AllVertices(g), tensor.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := NeighborSelection(g, schema, udf, AllVertices(g), tensor.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range h1.LeafIDs {
		if h2.LeafIDs[i] != v {
			t.Fatal("selection not deterministic")
		}
	}
}

func TestNeighborSelectionNilArgs(t *testing.T) {
	g := ringGraph(3)
	if _, err := NeighborSelection(g, nil, nil, AllVertices(g), tensor.NewRNG(1)); err == nil {
		t.Fatal("nil schema/udf must error")
	}
}

func TestContextAdjacencyCaching(t *testing.T) {
	g := ringGraph(5)
	ctx := &Context{Graph: g, Engine: engine.New(engine.StrategyHA), NumFeatureRows: 5}
	a1 := ctx.GraphAdjacency()
	a2 := ctx.GraphAdjacency()
	if a1 != a2 {
		t.Fatal("graph adjacency must be cached")
	}
	// HDG adjacencies rebuilt on invalidation.
	schema := hdg.NewSchemaTree("vertex")
	recs := []hdg.Record{{Root: 0, Nei: []graph.VertexID{1}, Type: 0}}
	h, err := hdg.Build(schema, []graph.VertexID{0}, recs)
	if err != nil {
		t.Fatal(err)
	}
	ctx.HDG = h
	f1 := ctx.FlatAdjacency()
	if ctx.FlatAdjacency() != f1 {
		t.Fatal("flat adjacency must be cached")
	}
	h2, _ := hdg.Build(schema, []graph.VertexID{0}, recs)
	ctx.InvalidateHDG(h2)
	if ctx.FlatAdjacency() == f1 {
		t.Fatal("InvalidateHDG must drop cached adjacencies")
	}
}

type recordingAggregator struct {
	calls int
	err   error // returned instead of a result when set
}

func (r *recordingAggregator) AggregateBottom(adj *engine.Adjacency, feats *nn.Value, op tensor.ReduceOp) (*nn.Value, error) {
	r.calls++
	if r.err != nil {
		return nil, r.err
	}
	return engine.FusedAggregate(adj, feats, op), nil
}

func TestContextBottomHook(t *testing.T) {
	g := ringGraph(4)
	ctx := &Context{Graph: g, Engine: engine.New(engine.StrategyHA), NumFeatureRows: 4}
	feats := nn.Constant(tensor.Ones(4, 2))
	// Without hook: engine path.
	out1 := ctx.AggregateBottom(ctx.GraphAdjacency(), feats, tensor.ReduceSum)
	// With hook: intercepted.
	rec := &recordingAggregator{}
	ctx.Bottom = rec
	out2 := ctx.AggregateBottom(ctx.GraphAdjacency(), feats, tensor.ReduceSum)
	if rec.calls != 1 {
		t.Fatalf("hook called %d times", rec.calls)
	}
	if !out1.Data.ApproxEqual(out2.Data, 1e-6) {
		t.Fatal("hook result differs")
	}
}

func TestAllVertices(t *testing.T) {
	g := ringGraph(7)
	roots := AllVertices(g)
	if len(roots) != 7 || roots[0] != 0 || roots[6] != 6 {
		t.Fatalf("AllVertices = %v", roots)
	}
}

// dummyLayer is a minimal NAU layer for trainer tests: flat single-type
// schema, aggregation sums the selected neighbor, update is linear.
type dummyLayer struct {
	lin *nn.Linear
	act bool
}

func newDummyLayer(in, out int, act bool, rng *tensor.RNG) *dummyLayer {
	return &dummyLayer{lin: nn.NewLinear(in, out, true, rng), act: act}
}

func (l *dummyLayer) Schema() *hdg.SchemaTree { return hdg.NewSchemaTree("vertex") }

func (l *dummyLayer) NeighborUDF() NeighborUDF {
	return func(g *graph.Graph, _ *hdg.SchemaTree, v graph.VertexID, _ *tensor.RNG) []hdg.Record {
		var recs []hdg.Record
		for _, u := range g.OutNeighbors(v) {
			recs = append(recs, hdg.Record{Root: v, Nei: []graph.VertexID{u}, Type: 0})
		}
		return recs
	}
}

func (l *dummyLayer) Aggregation(ctx *Context, feats *nn.Value) *nn.Value {
	return ctx.AggregateBottom(ctx.FlatAdjacency(), feats, tensor.ReduceSum)
}

func (l *dummyLayer) Update(_ *Context, feats, nbr *nn.Value) *nn.Value {
	out := l.lin.Forward(nn.Add(feats, nbr))
	if l.act {
		out = nn.ReLU(out)
	}
	return out
}

func (l *dummyLayer) Parameters() []*nn.Value { return l.lin.Parameters() }

func dummyTrainer(t *testing.T, cache CachePolicy) *Trainer {
	t.Helper()
	g := ringGraph(32)
	rng := tensor.NewRNG(50)
	feats := tensor.RandN(rng, 1, 32, 4)
	labels := make([]int32, 32)
	for i := range labels {
		labels[i] = int32(i / 16) // two contiguous blocks: ring neighbors mostly agree
		feats.Set(feats.At(i, int(labels[i]))+2, i, int(labels[i]))
	}
	m := &Model{
		Name:   "dummy",
		Layers: []Layer{newDummyLayer(4, 8, true, rng), newDummyLayer(8, 2, false, rng)},
		Cache:  cache,
	}
	return NewTrainerWith(m, TrainerOptions{Graph: g, Features: feats, Labels: labels, Seed: 51})
}

func TestTrainerEpochAndEvaluate(t *testing.T) {
	tr := dummyTrainer(t, CacheForever)
	if tr.Engine.Strategy != engine.StrategyHA {
		t.Fatalf("a nil TrainerOptions.Engine selected %v, documented as HA", tr.Engine.Strategy)
	}
	var first, last float32
	for e := 0; e < 20; e++ {
		loss, err := tr.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		if e == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("dummy model loss did not decrease: %v -> %v", first, last)
	}
	acc, err := tr.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Fatalf("accuracy %v too low for separable data", acc)
	}
	if tr.HDG() == nil {
		t.Fatal("HDG must be built and cached")
	}
}

func TestTrainerCachePolicies(t *testing.T) {
	forever := dummyTrainer(t, CacheForever)
	if _, err := forever.Epoch(); err != nil {
		t.Fatal(err)
	}
	h := forever.HDG()
	if _, err := forever.Epoch(); err != nil {
		t.Fatal(err)
	}
	if forever.HDG() != h {
		t.Fatal("CacheForever must reuse the HDG")
	}

	perEpoch := dummyTrainer(t, CachePerEpoch)
	if _, err := perEpoch.Epoch(); err != nil {
		t.Fatal(err)
	}
	h1 := perEpoch.HDG()
	// Evaluation between epochs must not rebuild.
	if _, err := perEpoch.Evaluate(nil); err != nil {
		t.Fatal(err)
	}
	if perEpoch.HDG() != h1 {
		t.Fatal("Evaluate must not rebuild the HDG")
	}
	if _, err := perEpoch.Epoch(); err != nil {
		t.Fatal(err)
	}
	if perEpoch.HDG() == h1 {
		t.Fatal("CachePerEpoch must rebuild for a new epoch")
	}
}

func TestModelHelpers(t *testing.T) {
	tr := dummyTrainer(t, CacheForever)
	if !tr.Model.NeedsHDG() {
		t.Fatal("dummy model uses a schema and needs HDGs")
	}
	if n := nn.NumParams(tr.Model.Parameters()); n != 4*8+8+8*2+2 {
		t.Fatalf("NumParams = %d", n)
	}
}

func TestAggregateDriverArity(t *testing.T) {
	g := ringGraph(4)
	ctx := &Context{Graph: g, Engine: engine.New(engine.StrategyHA), NumFeatureRows: 4}
	feats := nn.Constant(tensor.Ones(4, 2))

	// DNFA: one UDF reduces 1-hop neighbors.
	out := ctx.Aggregate(feats, Sum)
	if out.Data.Rows() != 4 || out.Data.At(0, 0) != 1 {
		t.Fatalf("DNFA aggregate = %v", out.Data)
	}
	func() {
		defer expectPanicT(t, "DNFA with 3 UDFs")
		ctx.Aggregate(feats, Sum, Sum, Sum)
	}()

	// Flat HDG: one UDF.
	schema := hdg.NewSchemaTree("vertex")
	recs := []hdg.Record{
		{Root: 0, Nei: []graph.VertexID{1}, Type: 0},
		{Root: 0, Nei: []graph.VertexID{2}, Type: 0},
	}
	flat, err := hdg.Build(schema, []graph.VertexID{0, 1, 2, 3}, recs)
	if err != nil {
		t.Fatal(err)
	}
	ctx.InvalidateHDG(flat)
	out = ctx.Aggregate(feats, Sum)
	if out.Data.At(0, 0) != 2 { // two single-vertex instances of ones
		t.Fatalf("flat aggregate = %v", out.Data)
	}

	// Hierarchical HDG: three UDFs, checked against a hand computation.
	hs := hdg.NewSchemaTree("a", "b")
	hrecs := []hdg.Record{
		{Root: 0, Nei: []graph.VertexID{1, 2}, Type: 0},
		{Root: 0, Nei: []graph.VertexID{3}, Type: 1},
	}
	hier, err := hdg.Build(hs, []graph.VertexID{0}, hrecs)
	if err != nil {
		t.Fatal(err)
	}
	ctx.InvalidateHDG(hier)
	vals := tensor.FromSlice([]float32{0, 10, 20, 30}, 4, 1)
	out = ctx.Aggregate(nn.Constant(vals), Mean, Sum, Sum)
	// Instance a = mean(10,20) = 15; instance b = 30; root = 15+30 = 45.
	if out.Data.Rows() != 1 || out.Data.At(0, 0) != 45 {
		t.Fatalf("hierarchical aggregate = %v", out.Data)
	}
	func() {
		defer expectPanicT(t, "hierarchical with 1 UDF")
		ctx.Aggregate(feats, Sum)
	}()
}

// nau.Min is an exported level UDF: it must work at the intermediate and the
// schema level under every strategy (the dense schema reduction used to
// panic on it, the sparse fallback had no case for it). Forward and the
// gradient reaching the input features are checked against naive loops.
func TestAggregateMinAtUpperLevels(t *testing.T) {
	const numVerts, numRoots, numTypes, dim = 12, 5, 3, 4
	rng := tensor.NewRNG(77)
	names := []string{"a", "b", "c"}
	var roots []graph.VertexID
	var recs []hdg.Record
	for r := 0; r < numRoots; r++ {
		roots = append(roots, graph.VertexID(r))
		for ty := 0; ty < numTypes; ty++ {
			if (r+ty)%4 == 0 {
				continue // empty slot: a zero row that takes part in the root's min
			}
			for k := 1 + rng.Intn(3); k > 0; k-- {
				nei := make([]graph.VertexID, 2+rng.Intn(2))
				for i := range nei {
					nei[i] = graph.VertexID(rng.Intn(numVerts))
				}
				recs = append(recs, hdg.Record{Root: roots[r], Nei: nei, Type: ty})
			}
		}
	}
	h, err := hdg.Build(hdg.NewSchemaTree(names...), roots, recs)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandN(rng, 1, numVerts, dim)
	seed := tensor.RandN(rng, 1, numRoots, dim)

	// Naive reference: per root and column, the winning slot (first minimum
	// over all numTypes slots, empty ones reading 0) and, inside it, the
	// winning instance (first minimum); the gradient spreads over that
	// instance's leaves with the mean's 1/len weight.
	want, wantGrad := tensor.New(numRoots, dim), tensor.New(numVerts, dim)
	for r := 0; r < numRoots; r++ {
		for j := 0; j < dim; j++ {
			best, bestInst := float32(0), -1
			for ty := 0; ty < numTypes; ty++ {
				lo, hi := h.Instances(r, ty)
				slot, slotInst := float32(0), -1
				for i := int(lo); i < int(hi); i++ {
					var mean float32
					for _, v := range h.Leaves(i) {
						mean += x.At(int(v), j)
					}
					mean /= float32(len(h.Leaves(i)))
					if slotInst < 0 || mean < slot {
						slot, slotInst = mean, i
					}
				}
				if ty == 0 || slot < best {
					best, bestInst = slot, slotInst
				}
			}
			want.Set(best, r, j)
			if bestInst >= 0 {
				leaves := h.Leaves(bestInst)
				for _, v := range leaves {
					wantGrad.Set(wantGrad.At(int(v), j)+seed.At(r, j)/float32(len(leaves)), int(v), j)
				}
			}
		}
	}

	for _, strat := range []engine.Strategy{engine.StrategySA, engine.StrategySAFA, engine.StrategyHA} {
		ctx := &Context{Graph: ringGraph(numVerts), HDG: h, Engine: engine.New(strat), NumFeatureRows: numVerts}
		feats := nn.Param(x.Clone())
		out := ctx.Aggregate(feats, Mean, Min, Min)
		if !out.Data.ApproxEqual(want, 1e-6) {
			t.Fatalf("[%v] Aggregate(Mean, Min, Min) = %v, want %v", strat, out.Data, want)
		}
		out.BackwardWith(seed)
		if !feats.Grad.ApproxEqual(wantGrad, 1e-6) {
			t.Fatalf("[%v] feature gradient = %v, want %v", strat, feats.Grad, wantGrad)
		}
	}
}

func expectPanicT(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("expected panic: %s", what)
	}
}

func TestFig5UDFLibrary(t *testing.T) {
	g := ringGraph(8)
	rng := tensor.NewRNG(60)

	// RandomWalkUDF: on a directed ring, the top-2 visited from v are
	// v+1 and v+2.
	recs := RandomWalkUDF(4, 2, 2)(g, nil, 0, rng)
	if len(recs) != 2 {
		t.Fatalf("RandomWalkUDF = %+v", recs)
	}
	got := map[graph.VertexID]bool{recs[0].Nei[0]: true, recs[1].Nei[0]: true}
	if !got[1] || !got[2] {
		t.Fatalf("walk neighbors = %v", got)
	}

	// HopFrontierUDF: frontier sizes 1, 1 on a ring.
	recs = HopFrontierUDF(2)(g, nil, 0, rng)
	if len(recs) != 2 || recs[0].Type != 0 || recs[1].Type != 1 {
		t.Fatalf("HopFrontierUDF = %+v", recs)
	}
	if recs[0].Nei[0] != 1 || recs[1].Nei[0] != 2 {
		t.Fatalf("hop frontiers = %+v", recs)
	}

	// AnchorSetSelector: one record per anchor set regardless of v.
	anchors := [][]graph.VertexID{{1, 2}, {3}}
	recs = AnchorSetSelector(anchors).UDF()(g, nil, 5, rng)
	if len(recs) != 2 || len(recs[0].Nei) != 2 || recs[1].Type != 1 {
		t.Fatalf("AnchorSetSelector = %+v", recs)
	}

	// MetapathUDF on a typed triangle.
	b := graph.NewBuilder(3)
	b.SetTypes([]uint8{0, 1, 0}, 2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	tg := b.Build()
	mp := []graph.Metapath{{Name: "aba", Types: []uint8{0, 1, 0}}}
	recs = MetapathUDF(mp, 0)(tg, nil, 0, rng)
	if len(recs) != 1 || len(recs[0].Nei) != 3 {
		t.Fatalf("MetapathUDF = %+v", recs)
	}
}

func TestTrainerPredict(t *testing.T) {
	tr := dummyTrainer(t, CacheForever)
	if _, err := tr.Epoch(); err != nil {
		t.Fatal(err)
	}
	logits, err := tr.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if logits.Rows() != 32 || logits.Dim(1) != 2 {
		t.Fatalf("Predict shape = %v", logits.Shape())
	}
}
