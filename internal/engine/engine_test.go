package engine

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// lineGraph builds 0 -> 1 -> 2 -> 3 (directed), so vertex v's in-neighbors
// are {v-1}.
func lineGraph() *graph.Graph {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	return b.Build()
}

func magnnHDG(t *testing.T) *hdg.HDG {
	t.Helper()
	schema := hdg.NewSchemaTree("MP1", "MP2")
	recs := []hdg.Record{
		{Root: 0, Nei: []graph.VertexID{0, 3, 2}, Type: 0},
		{Root: 0, Nei: []graph.VertexID{0, 4, 1}, Type: 1},
		{Root: 0, Nei: []graph.VertexID{0, 5, 6}, Type: 1},
		{Root: 0, Nei: []graph.VertexID{0, 7, 6}, Type: 1},
		{Root: 0, Nei: []graph.VertexID{0, 7, 8}, Type: 1},
	}
	h, err := hdg.Build(schema, []graph.VertexID{0}, recs)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func flatHDG(t *testing.T) *hdg.HDG {
	t.Helper()
	schema := hdg.NewSchemaTree("vertex")
	recs := []hdg.Record{
		{Root: 0, Nei: []graph.VertexID{2}, Type: 0},
		{Root: 0, Nei: []graph.VertexID{3}, Type: 0},
		{Root: 1, Nei: []graph.VertexID{0}, Type: 0},
	}
	h, err := hdg.Build(schema, []graph.VertexID{0, 1}, recs)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestFromGraphInEdges(t *testing.T) {
	adj := FromGraphInEdges(lineGraph())
	if adj.NumDst != 4 || adj.NumSrc != 4 || adj.NumEdges() != 3 {
		t.Fatalf("adjacency dims wrong: %+v", adj)
	}
	// Vertex 0 has no in-neighbors; vertex 2's in-neighbor is 1.
	if adj.DstPtr[1]-adj.DstPtr[0] != 0 {
		t.Fatal("vertex 0 should have no sources")
	}
	if adj.SrcIdx[adj.DstPtr[2]] != 1 {
		t.Fatal("vertex 2's source should be 1")
	}
}

func TestFusedEqualsScatterSum(t *testing.T) {
	adj := FromGraphInEdges(lineGraph())
	rng := tensor.NewRNG(1)
	feats := nn.Constant(tensor.RandN(rng, 1, 4, 3))
	fused := FusedAggregate(adj, feats, tensor.ReduceSum)
	scattered := ScatterAggregate(adj, feats, tensor.ReduceSum)
	if !fused.Data.ApproxEqual(scattered.Data, 1e-5) {
		t.Fatalf("fused %v != scattered %v", fused.Data, scattered.Data)
	}
}

// Property: fused and scatter paths agree forward for random adjacencies
// and all supported ops.
func TestFusedEqualsScatterQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		nSrc := 1 + rng.Intn(10)
		nDst := 1 + rng.Intn(8)
		b := graph.NewBuilder(nSrc + nDst)
		// random bipartite edges src -> dst(+nSrc)
		for i := 0; i < rng.Intn(30); i++ {
			b.AddEdge(graph.VertexID(rng.Intn(nSrc)), graph.VertexID(nSrc+rng.Intn(nDst)))
		}
		g := b.Build()
		// Build adjacency: dsts are vertices nSrc..nSrc+nDst-1.
		ptr := make([]int64, nDst+1)
		var idx []int32
		for d := 0; d < nDst; d++ {
			for _, u := range g.InNeighbors(graph.VertexID(nSrc + d)) {
				idx = append(idx, u)
			}
			ptr[d+1] = int64(len(idx))
		}
		adj := &Adjacency{NumDst: nDst, NumSrc: nSrc, DstPtr: ptr, SrcIdx: idx}
		feats := nn.Constant(tensor.RandN(rng, 1, nSrc, 4))
		for _, op := range []tensor.ReduceOp{tensor.ReduceSum, tensor.ReduceMean, tensor.ReduceMax} {
			a := FusedAggregate(adj, feats, op)
			b := ScatterAggregate(adj, feats, op)
			if !a.Data.ApproxEqual(b.Data, 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Fused backward must match scatter backward (which is built from
// grad-checked primitives).
func TestFusedBackwardMatchesScatter(t *testing.T) {
	adj := FromGraphInEdges(lineGraph())
	rng := tensor.NewRNG(2)
	base := tensor.RandN(rng, 1, 4, 3)
	seed := tensor.RandN(rng, 1, 4, 3)

	for _, op := range []tensor.ReduceOp{tensor.ReduceSum, tensor.ReduceMean, tensor.ReduceMax} {
		f1 := nn.Param(base.Clone())
		FusedAggregate(adj, f1, op).BackwardWith(seed.Clone())
		f2 := nn.Param(base.Clone())
		ScatterAggregate(adj, f2, op).BackwardWith(seed.Clone())
		if !f1.Grad.ApproxEqual(f2.Grad, 1e-4) {
			t.Fatalf("op %v: fused grad %v != scatter grad %v", op, f1.Grad, f2.Grad)
		}
	}
}

func TestHDGBottomAdjacency(t *testing.T) {
	h := magnnHDG(t)
	adj := FromHDGBottom(h, 9)
	if adj.NumDst != 5 {
		t.Fatalf("NumDst = %d, want 5 instances", adj.NumDst)
	}
	if adj.NumEdges() != 15 {
		t.Fatalf("NumEdges = %d, want 15 leaves", adj.NumEdges())
	}
	// Instance 0 (p1) has leaves A(0), D(3), C(2).
	got := []int32{adj.SrcIdx[0], adj.SrcIdx[1], adj.SrcIdx[2]}
	if got[0] != 0 || got[1] != 3 || got[2] != 2 {
		t.Fatalf("p1 sources = %v", got)
	}
}

func TestFlatAdjacency(t *testing.T) {
	h := flatHDG(t)
	adj := FromHDGFlat(h, 4)
	if adj.NumDst != 2 || adj.NumEdges() != 3 {
		t.Fatalf("dims wrong: %d %d", adj.NumDst, adj.NumEdges())
	}
	// Root rank 0 has sources {2,3}; rank 1 has {0}.
	if adj.DstPtr[1] != 2 || adj.SrcIdx[2] != 0 {
		t.Fatalf("flat adjacency wrong: ptr=%v idx=%v", adj.DstPtr, adj.SrcIdx)
	}
}

func TestFlatVsBottomPanics(t *testing.T) {
	h := flatHDG(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromHDGBottom(h, 4)
}

func TestFullHierarchicalAggregation(t *testing.T) {
	// End-to-end 3-level aggregation over the Fig. 3c HDG with sum at
	// every level, checked against a hand computation.
	h := magnnHDG(t)
	feats := tensor.New(9, 1)
	for v := 0; v < 9; v++ {
		feats.Set(float32(v+1), v, 0) // feature of vertex v is v+1
	}
	for _, strat := range []Strategy{StrategySA, StrategySAFA, StrategyHA} {
		e := New(strat)
		fv := nn.Constant(feats)
		inst := e.AggregateBottom(FromHDGBottom(h, 9), fv, tensor.ReduceSum)
		// p1 = A+D+C = 1+4+3 = 8; p2 = 1+5+2 = 8; p3 = 1+6+7 = 14;
		// p4 = 1+8+7 = 16; p5 = 1+8+9 = 18.
		wantInst := tensor.FromSlice([]float32{8, 8, 14, 16, 18}, 5, 1)
		if !inst.Data.ApproxEqual(wantInst, 1e-5) {
			t.Fatalf("[%v] instance feats = %v", strat, inst.Data)
		}
		slots := e.AggregateIntermediate(h, inst, tensor.ReduceSum)
		// MP1 = 8; MP2 = 8+14+16+18 = 56.
		wantSlots := tensor.FromSlice([]float32{8, 56}, 2, 1)
		if !slots.Data.ApproxEqual(wantSlots, 1e-5) {
			t.Fatalf("[%v] slot feats = %v", strat, slots.Data)
		}
		root := e.AggregateSchema(h, slots, tensor.ReduceSum)
		if root.Data.Rows() != 1 || root.Data.At(0, 0) != 64 {
			t.Fatalf("[%v] root feats = %v", strat, root.Data)
		}
	}
}

func TestHierarchicalGradientFlows(t *testing.T) {
	h := magnnHDG(t)
	rng := tensor.NewRNG(3)
	for _, strat := range []Strategy{StrategySA, StrategyHA} {
		e := New(strat)
		feats := nn.Param(tensor.RandN(rng, 1, 9, 2))
		inst := e.AggregateBottom(FromHDGBottom(h, 9), feats, tensor.ReduceMean)
		slots := e.AggregateIntermediate(h, inst, tensor.ReduceMean)
		root := e.AggregateSchema(h, slots, tensor.ReduceSum)
		nn.MeanAll(root).Backward()
		if feats.Grad == nil {
			t.Fatalf("[%v] no gradient reached the leaf features", strat)
		}
		var nonzero bool
		for _, g := range feats.Grad.Data() {
			if g != 0 {
				nonzero = true
				break
			}
		}
		if !nonzero {
			t.Fatalf("[%v] gradient is all zero", strat)
		}
	}
}

func TestSoftmaxWeighted(t *testing.T) {
	h := magnnHDG(t)
	rng := tensor.NewRNG(4)
	e := New(StrategyHA)
	instFeats := nn.Param(tensor.RandN(rng, 1, 5, 3))
	scores := nn.Param(tensor.RandN(rng, 1, 5, 1))
	out := e.SoftmaxWeighted(h, scores, instFeats)
	if out.Data.Rows() != 2 || out.Data.Dim(1) != 3 {
		t.Fatalf("SoftmaxWeighted shape = %v", out.Data.Shape())
	}
	// Slot MP1 has a single instance: attention 1 -> output equals the
	// instance feature.
	for j := 0; j < 3; j++ {
		if d := out.Data.At(0, j) - instFeats.Data.At(0, j); d > 1e-5 || d < -1e-5 {
			t.Fatalf("singleton slot should pass through: %v vs %v", out.Data, instFeats.Data)
		}
	}
	nn.MeanAll(out).Backward()
	if scores.Grad == nil || instFeats.Grad == nil {
		t.Fatal("gradients must flow to both scores and features")
	}
}

func TestSchemaReduceDenseMatchesSparse(t *testing.T) {
	h := magnnHDG(t)
	rng := tensor.NewRNG(5)
	slotFeats := tensor.RandN(rng, 1, 2, 4)
	dense := New(StrategyHA).AggregateSchema(h, nn.Constant(slotFeats), tensor.ReduceMean)
	sparse := New(StrategySAFA).AggregateSchema(h, nn.Constant(slotFeats), tensor.ReduceMean)
	if !dense.Data.ApproxEqual(sparse.Data, 1e-5) {
		t.Fatalf("dense %v != sparse %v", dense.Data, sparse.Data)
	}
}

func TestReverseAdjacency(t *testing.T) {
	adj := FromGraphInEdges(lineGraph())
	rev := adj.Reverse()
	if rev.NumDst != 4 || rev.NumEdges() != 3 {
		t.Fatalf("reverse dims wrong")
	}
	// Forward: dst v <- src v-1. Reverse: src v -> dst v+1.
	if rev.SrcIdx[rev.DstPtr[0]] != 1 {
		t.Fatalf("reverse of 0 should be [1], got %v", rev.SrcIdx)
	}
	if rev.Reverse() != adj.Reverse().Reverse() {
		t.Fatal("Reverse must be cached")
	}
}

func TestEmptyDestinations(t *testing.T) {
	// Vertex 0 in the line graph has no in-neighbors: all ops must give a
	// zero row, matching scatter semantics.
	adj := FromGraphInEdges(lineGraph())
	feats := nn.Constant(tensor.Ones(4, 2))
	for _, op := range []tensor.ReduceOp{tensor.ReduceSum, tensor.ReduceMean, tensor.ReduceMax} {
		out := FusedAggregate(adj, feats, op)
		if out.Data.At(0, 0) != 0 || out.Data.At(0, 1) != 0 {
			t.Fatalf("op %v: empty destination row = %v", op, out.Data)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if StrategySA.String() != "SA" || StrategySAFA.String() != "SA+FA" || StrategyHA.String() != "HA" {
		t.Fatal("strategy names wrong")
	}
}

func TestFusedMinEqualsScatterMin(t *testing.T) {
	adj := FromGraphInEdges(lineGraph())
	rng := tensor.NewRNG(9)
	base := tensor.RandN(rng, 1, 4, 3)
	seed := tensor.RandN(rng, 1, 4, 3)
	f1 := nn.Param(base.Clone())
	FusedAggregate(adj, f1, tensor.ReduceMin).BackwardWith(seed.Clone())
	f2 := nn.Param(base.Clone())
	ScatterAggregate(adj, f2, tensor.ReduceMin).BackwardWith(seed.Clone())
	if !f1.Grad.ApproxEqual(f2.Grad, 1e-5) {
		t.Fatalf("min grads disagree: %v vs %v", f1.Grad, f2.Grad)
	}
}

func TestSchemaReduceMaxDenseMatchesSparse(t *testing.T) {
	h := magnnHDG(t)
	rng := tensor.NewRNG(12)
	base := tensor.RandN(rng, 1, 2, 4)
	seed := tensor.RandN(rng, 1, 1, 4)
	f1 := nn.Param(base.Clone())
	New(StrategyHA).AggregateSchema(h, f1, tensor.ReduceMax).BackwardWith(seed.Clone())
	f2 := nn.Param(base.Clone())
	New(StrategySAFA).AggregateSchema(h, f2, tensor.ReduceMax).BackwardWith(seed.Clone())
	if !f1.Grad.ApproxEqual(f2.Grad, 1e-5) {
		t.Fatalf("schema max grads disagree: %v vs %v", f1.Grad, f2.Grad)
	}
}
