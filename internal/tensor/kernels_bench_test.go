package tensor

// Microbenchmarks for the hot-path kernels:
//
//	go test -run xxx -bench 'Kernel' -benchmem ./internal/tensor/
//
// Rows are gated against BENCH_kernels.json at the repo root under their
// recorded names (the scatter/gather rows keep the "/opt" suffix they were
// recorded with). No benchmark carries a replica of the kernel it replaced:
// the "seed" numbers are frozen in the JSON, and a before/after comes from
// alternating the parent commit's test binary with this one's.

import (
	"fmt"
	"testing"
)

// powerLawIndex draws n group assignments over [0, numOut) with a heavy
// skew: a handful of hub groups receive most of the assignments, the shape
// that would serialise a count-split scatter kernel.
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

// denseShapes are the products the end-to-end workloads run: GCN's two
// layers on Reddit×1.5 (6000×64→64→16), a cluster_gcn_k2_tcp rank's first
// layer on Twitter's 50 features and its 5-class output layer (6000×50→64,
// 6000×64→5), PinSage's on Twitter (12000×32→16→5) and MAGNN's [in,1]
// attention scorer, over 6000 rows and over the 32550 metapath instances of
// IMDB×0.7 (the rank-1 shapes matmul.go dispatches to vector kernels) — as
// [rows, inner, cols] of the forward product x[rows,inner] @ W[inner,cols].
// The backward products reuse them: TMatMul is xᵀ @ dOut and MatMulT is
// dOut @ Wᵀ.
var denseShapes = [][3]int{{6000, 64, 64}, {6000, 64, 16}, {6000, 50, 64}, {6000, 64, 5}, {12000, 32, 16}, {12000, 32, 5}, {6000, 64, 1}, {32550, 64, 1}}

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

func benchScatterOp(b *testing.B, mean bool, dim int) {
	rng := NewRNG(2)
	numOut, edges := 20000, 120000
	index := powerLawIndex(rng, edges, numOut)
	values := RandN(rng, 1, edges, dim)
	b.Run("opt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Recycle(scatter(values, index, numOut, mean))
		}
	})
}

func BenchmarkKernelScatterSum(b *testing.B)  { benchScatterOp(b, false, 64) }
func BenchmarkKernelScatterMean(b *testing.B) { benchScatterOp(b, true, 64) }

// Wide-feature-dim rows.
func BenchmarkKernelScatterSumWide(b *testing.B) { benchScatterOp(b, false, 256) }

func BenchmarkKernelScatterSoftmax(b *testing.B) {
	rng := NewRNG(4)
	numOut, edges, dim := 20000, 120000, 64
	index := powerLawIndex(rng, edges, numOut)
	values := RandN(rng, 1, edges, dim)
	b.Run("opt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Recycle(ScatterSoftmax(values, index, numOut))
		}
	})
}

func BenchmarkKernelReduceMiddle(b *testing.B) {
	rng := NewRNG(6)
	n, g, d := 20000, 8, 64
	t := RandN(rng, 1, n, g, d)
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
	b.Run("opt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Recycle(Gather(src, index))
		}
	})
}

// BenchmarkKernelRow times the row kernels the sparse passes call, at the
// feature widths the end-to-end workloads run (16, 50, 64). Add, Axpy and
// Scale run on one L1-resident pair of rows, an op being 1000 calls (so a
// short smoke run still measures calls, not the timer): what they cost is the
// call and the arithmetic, not memory. SumRows is what the fused sum/mean
// passes call instead, once per destination: an op is 1000 destinations of
// 48 random rows each out of an L2-sized [6000, w] matrix, so ns/op / 48 000
// is the per-edge cost of the pull.
func BenchmarkKernelRow(b *testing.B) {
	rng := NewRNG(5)
	const dests, deg, srcRows = 1000, 48, 6000
	idx := make([]int32, dests*deg)
	for i := range idx {
		idx[i] = int32(rng.Intn(srcRows))
	}
	for _, w := range []int{16, 50, 64} {
		dst, x := RandN(rng, 1, w).data, RandN(rng, 1, w).data
		src := RandN(rng, 1, srcRows, w).data
		for _, k := range []struct {
			name string
			call func()
		}{
			{"Add", func() { AddUnrolled(dst, x) }},
			{"Axpy", func() { AxpyUnrolled(dst, x, 1e-3) }},
			{"Scale", func() { ScaleUnrolled(dst, 1) }},
		} {
			b.Run(fmt.Sprintf("%s/w%d", k.name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for r := 0; r < 1000; r++ {
						k.call()
					}
				}
			})
		}
		b.Run(fmt.Sprintf("SumRows/w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for d := 0; d < dests; d++ {
					SumRows(dst, src, w, idx[d*deg:(d+1)*deg], false)
				}
			}
		})
	}
}
