package tensor

// Microbenchmarks for the hot-path kernel overhaul. The scatter/gather
// benchmarks have a "seed" sub-benchmark replicating the pre-overhaul kernel
// (fresh zeroed allocations, serial or count-split loops) and an "opt"
// sub-benchmark running the current implementation, so before/after
// throughput and allocs/op come from one `go test -bench` run:
//
//	go test -run xxx -bench 'Kernel' -benchmem ./internal/tensor/
//
// The dense products carry no replica of the kernels they replaced (their
// recorded numbers are frozen in the JSON): their before/after comes from
// alternating the parent commit's test binary with this one's.
//
// Results are recorded in BENCH_kernels.json at the repo root.

import (
	"fmt"
	"math"
	"testing"
)

// powerLawIndex draws n group assignments over [0, numOut) with a heavy
// skew: a handful of hub groups receive most of the assignments, the shape
// that serialises count-split scatter kernels.
func powerLawIndex(rng *RNG, n, numOut int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		u := float64(rng.Float32())
		idx[i] = int32(float64(numOut) * u * u * u * u)
		if int(idx[i]) >= numOut {
			idx[i] = int32(numOut - 1)
		}
	}
	return idx
}

// seedMaxLoop and seedMinLoop replicate the pre-overhaul compare-select
// kernels: strict branchy per-element loops, the shape that mispredicts on
// power-law aggregation inputs. The current MaxUnrolled/MinUnrolled compile
// to branchless builtin max/min, so the seed rows must keep their own copy
// to stay historical.
func seedMaxLoop(dst, x []float32) {
	for i := 0; i < len(dst); i++ {
		if x[i] > dst[i] {
			dst[i] = x[i]
		}
	}
}

func seedMinLoop(dst, x []float32) {
	for i := 0; i < len(dst); i++ {
		if x[i] < dst[i] {
			dst[i] = x[i]
		}
	}
}

// seedScatter replicates the pre-overhaul scatter kernel: zero/Inf-filled
// fresh output, one serial pass over the index with incremental validation.
func seedScatter(values *Tensor, index []int32, numOut int, op ReduceOp) *Tensor {
	c := values.Cols()
	out := New(numOut, c)
	switch op {
	case ReduceMax:
		out.Fill(float32(math.Inf(-1)))
	case ReduceMin:
		out.Fill(float32(math.Inf(1)))
	}
	counts := make([]int32, numOut)
	for i, dst := range index {
		counts[dst]++
		drow := out.data[int(dst)*c : int(dst+1)*c]
		srow := values.data[i*c : (i+1)*c]
		switch op {
		case ReduceSum, ReduceMean:
			AddUnrolled(drow, srow)
		case ReduceMax:
			seedMaxLoop(drow, srow)
		case ReduceMin:
			seedMinLoop(drow, srow)
		}
	}
	for r := 0; r < numOut; r++ {
		drow := out.data[r*c : (r+1)*c]
		if counts[r] == 0 {
			clear(drow)
			continue
		}
		if op == ReduceMean {
			ScaleUnrolled(drow, 1/float32(counts[r]))
		}
	}
	return out
}

func seedGather(src *Tensor, index []int32) *Tensor {
	c := src.Cols()
	out := New(len(index), c)
	ParallelFor(len(index), func(s, e int) {
		for i := s; i < e; i++ {
			copy(out.data[i*c:(i+1)*c], src.Row(int(index[i])))
		}
	})
	return out
}

// denseShapes are the products the end-to-end workloads run: GCN's two
// layers on Reddit×1.5 (6000×64→64→16), PinSage's on Twitter (12000×32→16→4)
// and MAGNN's [in,1] attention scorer, over 6000 rows and over the 32550
// metapath instances of IMDB×0.7 (the rank-1 shapes matmul.go dispatches to
// vector kernels) — as [rows, inner, cols] of the forward product
// x[rows,inner] @ W[inner,cols]. The backward products reuse them: TMatMul is
// xᵀ @ dOut and MatMulT is dOut @ Wᵀ.
var denseShapes = [][3]int{{6000, 64, 64}, {6000, 64, 16}, {12000, 32, 16}, {12000, 32, 4}, {6000, 64, 1}, {32550, 64, 1}}

// benchDense runs one product at every workload shape and at kernel
// parallelism 1 and 2 (the benchmark host has two CPUs; p1 is the row a
// one-CPU container reproduces).
func benchDense(b *testing.B, product func(x, w, dOut *Tensor) *Tensor) {
	defer SetParallelism(0)
	rng := NewRNG(1)
	for _, s := range denseShapes {
		x := RandN(rng, 1, s[0], s[1])
		w := RandN(rng, 1, s[1], s[2])
		dOut := RandN(rng, 1, s[0], s[2])
		for _, par := range []int{1, 2} {
			b.Run(fmt.Sprintf("%dx%dx%d/p%d", s[0], s[1], s[2], par), func(b *testing.B) {
				SetParallelism(par)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Recycle(product(x, w, dOut))
				}
			})
		}
	}
}

func BenchmarkKernelMatMul(b *testing.B) {
	// The two historical rows: a 256×1024 left operand against a 512 KiB and
	// a 2 MiB right operand (the sizes the deleted k-blocking layer switched
	// on); their seed ns/op are frozen in BENCH_kernels.json.
	rng := NewRNG(1)
	a := RandN(rng, 1, 256, 1024)
	for _, n := range []int{128, 512} {
		w := RandN(rng, 1, 1024, n)
		b.Run(fmt.Sprintf("256x1024x%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Recycle(a.MatMul(w))
			}
		})
	}
	benchDense(b, func(x, w, _ *Tensor) *Tensor { return x.MatMul(w) })
}

func BenchmarkKernelTMatMul(b *testing.B) {
	benchDense(b, func(x, _, dOut *Tensor) *Tensor { return x.TMatMul(dOut) })
}

func BenchmarkKernelMatMulT(b *testing.B) {
	benchDense(b, func(_, w, dOut *Tensor) *Tensor { return dOut.MatMulT(w) })
}

func benchScatterOp(b *testing.B, op ReduceOp, dim int) {
	rng := NewRNG(2)
	numOut, edges := 20000, 120000
	index := powerLawIndex(rng, edges, numOut)
	values := RandN(rng, 1, edges, dim)
	b.Run("seed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seedScatter(values, index, numOut, op)
		}
	})
	b.Run("opt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Recycle(scatter(values, index, numOut, op))
		}
	})
}

func BenchmarkKernelScatterSum(b *testing.B)  { benchScatterOp(b, ReduceSum, 64) }
func BenchmarkKernelScatterMean(b *testing.B) { benchScatterOp(b, ReduceMean, 64) }
func BenchmarkKernelScatterMax(b *testing.B)  { benchScatterOp(b, ReduceMax, 64) }

// Wide-feature-dim rows. Scatter deliberately does not tile (both tiled
// structures measured 2-3x slower than the single sequential index scan on
// this machine — see the comment in scatter()); these rows exist so that
// regression stays visible if anyone re-introduces tiling here.
func BenchmarkKernelScatterSumWide(b *testing.B) { benchScatterOp(b, ReduceSum, 256) }
func BenchmarkKernelScatterMaxWide(b *testing.B) { benchScatterOp(b, ReduceMax, 256) }

// seedScatterSoftmax replicates a pre-overhaul scatter_softmax: serial
// three-pass (max, exp+sum, normalise) with fresh allocations.
func seedScatterSoftmax(values *Tensor, index []int32, numOut int) *Tensor {
	c := values.Cols()
	out := New(values.Rows(), c)
	maxes := Full(float32(math.Inf(-1)), numOut, c)
	sums := New(numOut, c)
	md, sd := maxes.data, sums.data
	for i, dst := range index {
		drow := md[int(dst)*c : int(dst+1)*c]
		for j, v := range values.data[i*c : (i+1)*c] {
			if v > drow[j] {
				drow[j] = v
			}
		}
	}
	for i, dst := range index {
		base := int(dst) * c
		for j, v := range values.data[i*c : (i+1)*c] {
			e := float32(math.Exp(float64(v - md[base+j])))
			out.data[i*c+j] = e
			sd[base+j] += e
		}
	}
	for i, dst := range index {
		base := int(dst) * c
		for j := 0; j < c; j++ {
			if sd[base+j] != 0 {
				out.data[i*c+j] /= sd[base+j]
			}
		}
	}
	return out
}

func BenchmarkKernelScatterSoftmax(b *testing.B) {
	rng := NewRNG(4)
	numOut, edges, dim := 20000, 120000, 64
	index := powerLawIndex(rng, edges, numOut)
	values := RandN(rng, 1, edges, dim)
	b.Run("seed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seedScatterSoftmax(values, index, numOut)
		}
	})
	b.Run("opt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Recycle(ScatterSoftmax(values, index, numOut))
		}
	})
}

// seedReduceMiddle replicates a pre-overhaul [N, G, D] -> [N, D] max
// reduction: serial copy-first fold with the branchy compare loop.
func seedReduceMiddle(t *Tensor) *Tensor {
	n, g, d := t.Dim(0), t.Dim(1), t.Dim(2)
	out := New(n, d)
	for i := 0; i < n; i++ {
		base := i * g * d
		copy(out.data[i*d:(i+1)*d], t.data[base:base+d])
		for j := 1; j < g; j++ {
			seedMaxLoop(out.data[i*d:(i+1)*d], t.data[base+j*d:base+(j+1)*d])
		}
	}
	return out
}

func BenchmarkKernelReduceMiddle(b *testing.B) {
	rng := NewRNG(6)
	n, g, d := 20000, 8, 64
	t := RandN(rng, 1, n, g, d)
	b.Run("seed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seedReduceMiddle(t)
		}
	})
	b.Run("opt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Recycle(t.ReduceMiddle(ReduceMax))
		}
	})
}

func BenchmarkKernelGather(b *testing.B) {
	rng := NewRNG(3)
	numRows, edges, dim := 20000, 120000, 64
	index := powerLawIndex(rng, edges, numRows)
	src := RandN(rng, 1, numRows, dim)
	b.Run("seed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seedGather(src, index)
		}
	})
	b.Run("opt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Recycle(Gather(src, index))
		}
	})
}
