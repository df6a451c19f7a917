package engine

// Benchmarks for the fused aggregation kernels on a skewed-degree graph.
// The "seed" sub-benchmarks replicate the pre-overhaul kernels (zero-filled
// fresh outputs, accumulate-into-zero forward, serial extreme backward,
// count-split worker ranges) so one `go test -bench` run yields before/after
// throughput and allocs/op:
//
//	go test -run xxx -bench 'Fused' -benchmem ./internal/engine/
//
// Results are recorded in BENCH_kernels.json at the repo root.

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// powerLawAdjacency builds an n-vertex adjacency whose in-degrees follow a
// heavy power law: a few hub destinations own most of the edges, the regime
// where count-split chunking serialises behind hubs.
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

// seedFusedForwardSum replicates the pre-overhaul fused forward: fresh
// zeroed output, accumulate every edge (no copy-first), count-split ranges.
func seedFusedForwardSum(adj *Adjacency, feats *tensor.Tensor, mean bool) *tensor.Tensor {
	dim := feats.Cols()
	out := tensor.New(adj.NumDst, dim)
	od, fd := out.Data(), feats.Data()
	tensor.ParallelFor(adj.NumDst, func(s, e int) {
		for d := s; d < e; d++ {
			dst := od[d*dim : (d+1)*dim]
			lo, hi := adj.DstPtr[d], adj.DstPtr[d+1]
			for p := lo; p < hi; p++ {
				src := int(adj.Src(p))
				tensor.AddUnrolled(dst, fd[src*dim:(src+1)*dim])
			}
			if mean && hi > lo {
				tensor.ScaleUnrolled(dst, 1/float32(hi-lo))
			}
		}
	})
	return out
}

// seedFusedSumMean wraps the seed forward and backward into an autograd op,
// exactly as the pre-overhaul engine registered it.
func seedFusedSumMean(adj *Adjacency, feats *nn.Value, mean bool) *nn.Value {
	data := seedFusedForwardSum(adj, feats.Data, mean)
	backward := func(out *nn.Value) {
		rev := adj.Reverse()
		dim := feats.Data.Cols()
		grad := tensor.New(feats.Data.Shape()...)
		gd, od := grad.Data(), out.Grad.Data()
		var degInv []float32
		if mean {
			degInv = make([]float32, adj.NumDst)
			for d := 0; d < adj.NumDst; d++ {
				if deg := adj.DstPtr[d+1] - adj.DstPtr[d]; deg > 0 {
					degInv[d] = 1 / float32(deg)
				}
			}
		}
		tensor.ParallelFor(rev.NumDst, func(s, e int) {
			for v := s; v < e; v++ {
				dst := gd[v*dim : (v+1)*dim]
				for p := rev.DstPtr[v]; p < rev.DstPtr[v+1]; p++ {
					d := int(rev.SrcIdx[p])
					row := od[d*dim : (d+1)*dim]
					if mean {
						tensor.AxpyUnrolled(dst, row, degInv[d])
					} else {
						tensor.AddUnrolled(dst, row)
					}
				}
			}
		})
		nn.AccumGrad(feats, grad)
	}
	return nn.NewOp(data, backward, feats)
}

// seedFusedMax replicates the pre-overhaul extreme kernel, including its
// serial backward loop.
func seedFusedMax(adj *Adjacency, feats *nn.Value) *nn.Value {
	dim := feats.Data.Cols()
	out := tensor.New(adj.NumDst, dim)
	argmax := make([]int32, adj.NumDst*dim)
	od, fd := out.Data(), feats.Data.Data()
	tensor.ParallelFor(adj.NumDst, func(s, e int) {
		for d := s; d < e; d++ {
			base := d * dim
			first := true
			for p := adj.DstPtr[d]; p < adj.DstPtr[d+1]; p++ {
				src := int(adj.Src(p))
				row := fd[src*dim : (src+1)*dim]
				if first {
					copy(od[base:base+dim], row)
					for j := 0; j < dim; j++ {
						argmax[base+j] = int32(src)
					}
					first = false
					continue
				}
				for j := 0; j < dim; j++ {
					if row[j] > od[base+j] {
						od[base+j] = row[j]
						argmax[base+j] = int32(src)
					}
				}
			}
			if first {
				for j := 0; j < dim; j++ {
					argmax[base+j] = -1
				}
			}
		}
	})
	backward := func(outV *nn.Value) {
		grad := tensor.New(feats.Data.Shape()...)
		gd, ogd := grad.Data(), outV.Grad.Data()
		for d := 0; d < adj.NumDst; d++ {
			base := d * dim
			for j := 0; j < dim; j++ {
				if src := argmax[base+j]; src >= 0 {
					gd[int(src)*dim+j] += ogd[base+j]
				}
			}
		}
		nn.AccumGrad(feats, grad)
	}
	return nn.NewOp(out, backward, feats)
}

const (
	fusedBenchVerts = 30000
	fusedBenchEdges = 90000
	fusedBenchDim   = 64
)

func fusedBenchInputs() (*Adjacency, *tensor.Tensor, *tensor.Tensor) {
	rng := tensor.NewRNG(7)
	adj := powerLawAdjacency(rng, fusedBenchVerts, fusedBenchEdges)
	adj.Reverse() // pre-build the cached reverse so benches time kernels only
	feats := tensor.RandN(rng, 1, fusedBenchVerts, fusedBenchDim)
	seed := tensor.RandN(rng, 1, fusedBenchVerts, fusedBenchDim)
	return adj, feats, seed
}

func benchFusedForward(b *testing.B, op tensor.ReduceOp) {
	adj, feats, _ := fusedBenchInputs()
	fv := nn.Constant(feats)
	b.Run("seed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			switch op {
			case tensor.ReduceSum, tensor.ReduceMean:
				seedFusedSumMean(adj, fv, op == tensor.ReduceMean)
			case tensor.ReduceMax:
				seedFusedMax(adj, fv)
			}
		}
	})
	b.Run("opt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tensor.Recycle(fusedAggregate(adj, fv, op, true).Data)
		}
	})
}

func BenchmarkFusedAggSum(b *testing.B)  { benchFusedForward(b, tensor.ReduceSum) }
func BenchmarkFusedAggMean(b *testing.B) { benchFusedForward(b, tensor.ReduceMean) }
func BenchmarkFusedAggMax(b *testing.B)  { benchFusedForward(b, tensor.ReduceMax) }

// Wide-feature-dim forward suite: dim 256 is wide enough for the
// feature-tile lever to fire when enabled. opt runs the default config
// (tiling off — it measured a loss at every dim on this machine, see
// tensor/tile.go); opt-tile enables a 64-column tile to keep that cost
// auditable, and opt-nobucket isolates the degree-bucketing lever.
func benchFusedForwardWide(b *testing.B, op tensor.ReduceOp) {
	const wideDim = 256
	rng := tensor.NewRNG(7)
	adj := powerLawAdjacency(rng, fusedBenchVerts, fusedBenchEdges)
	adj.Reverse()
	fv := nn.Constant(tensor.RandN(rng, 1, fusedBenchVerts, wideDim))
	b.Run("seed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			switch op {
			case tensor.ReduceSum, tensor.ReduceMean:
				seedFusedSumMean(adj, fv, op == tensor.ReduceMean)
			case tensor.ReduceMax:
				seedFusedMax(adj, fv)
			}
		}
	})
	opt := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tensor.Recycle(fusedAggregate(adj, fv, op, true).Data)
		}
	}
	b.Run("opt", opt)
	b.Run("opt-tile", func(b *testing.B) {
		tileDef := tensor.FeatureTile()
		tensor.SetFeatureTile(64)
		defer tensor.SetFeatureTile(tileDef)
		opt(b)
	})
	b.Run("opt-nobucket", func(b *testing.B) {
		hubDef, leafDef := DegreeBuckets()
		SetDegreeBuckets(0, 0)
		defer SetDegreeBuckets(hubDef, leafDef)
		opt(b)
	})
}

func BenchmarkFusedAggSumWide(b *testing.B) { benchFusedForwardWide(b, tensor.ReduceSum) }
func BenchmarkFusedAggMaxWide(b *testing.B) { benchFusedForwardWide(b, tensor.ReduceMax) }

func benchFusedTrainStep(b *testing.B, op tensor.ReduceOp) {
	adj, feats, grad := fusedBenchInputs()
	b.Run("seed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fv := nn.Param(feats)
			var out *nn.Value
			switch op {
			case tensor.ReduceSum, tensor.ReduceMean:
				out = seedFusedSumMean(adj, fv, op == tensor.ReduceMean)
			case tensor.ReduceMax:
				out = seedFusedMax(adj, fv)
			}
			out.BackwardWith(grad)
		}
	})
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

func BenchmarkFusedFwdBwdSum(b *testing.B) { benchFusedTrainStep(b, tensor.ReduceSum) }
func BenchmarkFusedFwdBwdMax(b *testing.B) { benchFusedTrainStep(b, tensor.ReduceMax) }
