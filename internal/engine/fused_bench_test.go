package engine

// Benchmarks for the fused aggregation kernels on a skewed-degree graph:
//
//	go test -run xxx -bench 'Fused' -benchmem ./internal/engine/
//
// The "/opt" rows are gated against BENCH_kernels.json at the repo root (the
// name is the recorded one). That file also keeps, as history, the numbers
// of the pre-overhaul "seed" kernel replicas and of the feature-tile and
// no-bucket ablations that used to run beside them here.

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// powerLawAdjacency builds an n-vertex adjacency whose in-degrees follow a
// heavy power law: a few hub destinations own most of the edges, the regime
// where an equal-count split would serialise behind hubs.
func powerLawAdjacency(rng *tensor.RNG, n, edges int) *Adjacency {
	counts := make([]int32, n)
	dsts := make([]int32, edges)
	for i := range dsts {
		u := float64(rng.Float32())
		d := int32(float64(n) * u * u * u * u)
		if int(d) >= n {
			d = int32(n - 1)
		}
		dsts[i] = d
		counts[d]++
	}
	ptr := make([]int64, n+1)
	for d, c := range counts {
		ptr[d+1] = ptr[d] + int64(c)
	}
	idx := make([]int32, edges)
	next := make([]int64, n)
	copy(next, ptr[:n])
	for _, d := range dsts {
		idx[next[d]] = int32(rng.Intn(n))
		next[d]++
	}
	return &Adjacency{NumDst: n, NumSrc: n, DstPtr: ptr, SrcIdx: idx}
}

const (
	fusedBenchVerts = 30000
	fusedBenchEdges = 90000
	fusedBenchDim   = 64
	fusedBenchWide  = 256
)

func fusedBenchInputs(dim int) (*Adjacency, *tensor.Tensor, *tensor.Tensor) {
	rng := tensor.NewRNG(7)
	adj := powerLawAdjacency(rng, fusedBenchVerts, fusedBenchEdges)
	adj.Reverse() // pre-build the cached reverse so benches time kernels only
	feats := tensor.RandN(rng, 1, fusedBenchVerts, dim)
	seed := tensor.RandN(rng, 1, fusedBenchVerts, dim)
	return adj, feats, seed
}

func benchFusedForward(b *testing.B, op tensor.ReduceOp, dim int) {
	adj, feats, _ := fusedBenchInputs(dim)
	fv := nn.Constant(feats)
	b.Run("opt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tensor.Recycle(fusedAggregate(adj, fv, op, true).Data)
		}
	})
}

func BenchmarkFusedAggSum(b *testing.B)  { benchFusedForward(b, tensor.ReduceSum, fusedBenchDim) }
func BenchmarkFusedAggMean(b *testing.B) { benchFusedForward(b, tensor.ReduceMean, fusedBenchDim) }
func BenchmarkFusedAggMax(b *testing.B)  { benchFusedForward(b, tensor.ReduceMax, fusedBenchDim) }

func BenchmarkFusedAggSumWide(b *testing.B) { benchFusedForward(b, tensor.ReduceSum, fusedBenchWide) }
func BenchmarkFusedAggMaxWide(b *testing.B) { benchFusedForward(b, tensor.ReduceMax, fusedBenchWide) }

func benchFusedTrainStep(b *testing.B, op tensor.ReduceOp) {
	adj, feats, grad := fusedBenchInputs(fusedBenchDim)
	b.Run("opt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fv := nn.Param(feats)
			out := fusedAggregate(adj, fv, op, true)
			out.BackwardWith(grad)
			tensor.Recycle(fv.Grad)
			tensor.Recycle(out.Data)
		}
	})
}

func BenchmarkFusedFwdBwdSum(b *testing.B)  { benchFusedTrainStep(b, tensor.ReduceSum) }
func BenchmarkFusedFwdBwdMean(b *testing.B) { benchFusedTrainStep(b, tensor.ReduceMean) }
func BenchmarkFusedFwdBwdMax(b *testing.B)  { benchFusedTrainStep(b, tensor.ReduceMax) }
