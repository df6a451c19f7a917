package engine

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// randomHeteroHDG builds a random hierarchical HDG: nRoots roots, two
// metapath types, each root with a random number of instances whose leaves
// are drawn from a feature universe of nVerts vertices. A few hub vertices
// appear in many instances so the edge-balanced split has real skew to chew
// on.
func randomHeteroHDG(t *testing.T, rng *tensor.RNG, nRoots, nVerts int) *hdg.HDG {
	t.Helper()
	schema := hdg.NewSchemaTree("MP1", "MP2")
	var recs []hdg.Record
	roots := make([]graph.VertexID, nRoots)
	for r := 0; r < nRoots; r++ {
		roots[r] = graph.VertexID(r)
		for ty := 0; ty < 2; ty++ {
			for k := rng.Intn(4); k >= 0; k-- {
				nei := []graph.VertexID{graph.VertexID(r)}
				for l := 1 + rng.Intn(3); l > 0; l-- {
					v := rng.Intn(nVerts)
					if rng.Intn(3) == 0 {
						v = 0 // hub vertex
					}
					nei = append(nei, graph.VertexID(v))
				}
				recs = append(recs, hdg.Record{Root: roots[r], Nei: nei, Type: ty})
			}
		}
	}
	h, err := hdg.Build(schema, roots, recs)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// runHierarchical aggregates bottom -> intermediate -> schema under the
// engine's strategy with the same operator at every level (so min and max
// reach the segment level and both schema paths), backprops a deterministic
// seed, and returns the root output plus the leaf gradient. It ends the step
// the way the training loops do — ReleaseGraph returns every level's output
// to the pool — so each configuration of the sweep computes on buffers the
// previous one recycled.
func runHierarchical(e *Engine, h *hdg.HDG, adj *Adjacency, base *tensor.Tensor, op tensor.ReduceOp) (*tensor.Tensor, *tensor.Tensor) {
	feats := nn.Param(base.Clone())
	inst := e.AggregateBottom(adj, feats, op)
	slots := e.AggregateIntermediate(h, inst, op)
	root := e.AggregateSchema(h, slots, op)
	loss := nn.MeanAll(root)
	loss.Backward()
	out, grad := root.Data.Clone(), feats.Grad.Clone()
	nn.ReleaseGraph(loss)
	return out, grad
}

// Property test for the kernel schedule: SA, SA+FA and HA must produce
// numerically identical forward outputs and leaf gradients on a random
// heterogeneous graph, with buffer pooling off and on (each pooled
// configuration computes on buffers the previous one recycled) and at
// parallelism 1 and 8. The feature width (17) is odd so the unrolled kernels
// exercise their scalar tails. Every destination here is a leaf of the
// bucketed scheduler; TestBucketedFusedBitExact covers the mid and hub paths.
func TestStrategiesAgreeUnderAllKernelConfigs(t *testing.T) {
	defer func() {
		tensor.SetParallelism(0)
		tensor.SetBufferPooling(true)
	}()

	rng := tensor.NewRNG(42)
	nVerts := 40
	h := randomHeteroHDG(t, rng, 12, nVerts)
	adj := FromHDGBottom(h, nVerts)
	base := tensor.RandN(rng, 1, nVerts, 17)

	ops := []tensor.ReduceOp{tensor.ReduceSum, tensor.ReduceMean, tensor.ReduceMax, tensor.ReduceMin}

	// Reference: SA, serial, nothing recycled.
	tensor.SetParallelism(1)
	tensor.SetBufferPooling(false)
	wantOut := make(map[tensor.ReduceOp]*tensor.Tensor)
	wantGrad := make(map[tensor.ReduceOp]*tensor.Tensor)
	for _, op := range ops {
		wantOut[op], wantGrad[op] = runHierarchical(New(StrategySA), h, adj, base, op)
	}

	for _, pooling := range []bool{false, true} {
		for _, par := range []int{1, 8} {
			tensor.SetBufferPooling(pooling)
			tensor.SetParallelism(par)
			cfg := fmt.Sprintf("pooling=%v par=%d", pooling, par)
			for _, strat := range []Strategy{StrategySA, StrategySAFA, StrategyHA} {
				e := New(strat)
				for _, op := range ops {
					out, grad := runHierarchical(e, h, adj, base, op)
					if !out.ApproxEqual(wantOut[op], 1e-5) {
						t.Fatalf("[%s %v op=%v] forward output diverged", cfg, strat, op)
					}
					if !grad.ApproxEqual(wantGrad[op], 1e-5) {
						t.Fatalf("[%s %v op=%v] leaf gradient diverged", cfg, strat, op)
					}
				}
			}
		}
	}
}

// The fused backward must handle multi-edges (same src->dst repeated): the
// reverse-adjacency gradient walk skips duplicate destinations, and sum
// semantics count each edge.
func TestFusedMultiEdgeGradients(t *testing.T) {
	// dst 0 <- {src 1, src 1, src 2}; dst 1 <- {src 1}.
	adj := &Adjacency{
		NumDst: 2, NumSrc: 3,
		DstPtr: []int64{0, 3, 4},
		SrcIdx: []int32{1, 1, 2, 1},
	}
	rng := tensor.NewRNG(8)
	base := tensor.RandN(rng, 1, 3, 4)
	seed := tensor.RandN(rng, 1, 2, 4)
	for _, op := range []tensor.ReduceOp{tensor.ReduceSum, tensor.ReduceMean, tensor.ReduceMax, tensor.ReduceMin} {
		f1 := nn.Param(base.Clone())
		FusedAggregate(adj, f1, op).BackwardWith(seed.Clone())
		f2 := nn.Param(base.Clone())
		ScatterAggregate(adj, f2, op).BackwardWith(seed.Clone())
		if !f1.Grad.ApproxEqual(f2.Grad, 1e-5) {
			t.Fatalf("op %v: fused grad %v != scatter grad %v", op, f1.Grad, f2.Grad)
		}
	}
}

// Releasing a step's graph must recycle every level's output — the dense
// schema level runs on a Reshape view, which must not return its parent's
// buffer a second time — without touching the leaf gradient the step
// accumulated.
func TestReleaseGraphStepIsolation(t *testing.T) {
	rng := tensor.NewRNG(21)
	h := randomHeteroHDG(t, rng, 6, 20)
	adj := FromHDGBottom(h, 20)
	base := tensor.RandN(rng, 1, 20, 3)

	e := New(StrategyHA)
	step := func(release bool) (*nn.Value, []*nn.Value) {
		feats := nn.Param(base.Clone())
		inst := e.AggregateBottom(adj, feats, tensor.ReduceMean)
		slots := e.AggregateIntermediate(h, inst, tensor.ReduceSum)
		root := e.AggregateSchema(h, slots, tensor.ReduceSum)
		loss := nn.MeanAll(root)
		loss.Backward()
		if release {
			nn.ReleaseGraph(loss)
		}
		return feats, []*nn.Value{inst, slots, root}
	}
	feats, interior := step(true)
	for i, v := range interior {
		if v.Data.Data() != nil {
			t.Fatalf("interior node %d still holds its forward buffer after release", i)
		}
	}
	grad := feats.Grad.Clone()
	// The next step draws the recycled buffers; it must not disturb the
	// first step's leaf gradient, and must reproduce it.
	feats2, _ := step(false)
	if !grad.ApproxEqual(feats.Grad, 0) || !grad.ApproxEqual(feats2.Grad, 1e-6) {
		t.Fatalf("gradient corrupted across release: %v vs %v / %v", grad, feats.Grad, feats2.Grad)
	}
}
