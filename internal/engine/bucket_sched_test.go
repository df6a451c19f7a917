package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// hubSource is the source hubTestAdjacency gives >= hubMinDeg out-edges, so
// the reverse adjacency has a hub of its own. The lateSources sources reach
// destination 0 only through its edges from lateFrom on, so whatever they
// alone contribute is found by a later segment of the hub's edge-parallel
// fold, never by the first.
const (
	hubSource   = 7
	lateSources = 15
	lateFrom    = 1500
)

// hubTestAdjacency builds a skewed level that populates every scheduler
// bucket at the shipped thresholds, in the adjacency and in its reverse:
// destination 0 is a 2600-edge hub (several minHubSegEdges segments at any
// parallelism), destination 2 an 1100-edge hub, destinations 3..12 a mid
// band from leafMaxDeg+1 to hubMinDeg-1 edges, and the rest 0-3 edge leaves
// including empties. Every non-empty leaf and a run of 50 consecutive hub
// edges come from hubSource, which makes it a hub of the reverse adjacency
// with consecutive duplicate destinations (the backward multi-edge skip).
// Sources are drawn from [0, nSrc-5): the last five have no out-edges, the
// lateSources before them are the late ones.
func hubTestAdjacency(rng *tensor.RNG, nDst, nSrc int) *Adjacency {
	degs := make([]int, nDst)
	degs[0] = 2600
	degs[2] = 1100
	for d, g := range []int{leafMaxDeg + 1, 40, 64, 100, 257, 500, 777, 1000, hubMinDeg - 1, 40} {
		degs[3+d] = g
	}
	for d := 13; d < nDst; d++ {
		degs[d] = rng.Intn(4) // 0..3, leaves and empties
	}
	ptr := make([]int64, nDst+1)
	for d, g := range degs {
		ptr[d+1] = ptr[d] + int64(g)
	}
	idx := make([]int32, ptr[nDst])
	for d := 0; d < nDst; d++ {
		for e := ptr[d]; e < ptr[d+1]; e++ {
			n := nSrc - 5
			if d == 0 && e < lateFrom {
				n -= lateSources
			}
			idx[e] = int32(rng.Intn(n))
		}
		if d >= 13 && degs[d] > 0 {
			idx[ptr[d]+int64(rng.Intn(degs[d]))] = hubSource
		}
	}
	// Multi-edges on the hub: the backward dup-skip path must fire.
	idx[1] = idx[0]
	idx[3] = idx[2]
	for e := 700; e < 750; e++ {
		idx[e] = hubSource
	}
	return &Adjacency{NumDst: nDst, NumSrc: nSrc, DstPtr: ptr, SrcIdx: idx}
}

// specialFeats fills an [nSrc, dim] feature matrix with a coarse grid full
// of exact ties plus NaN, ±Inf and -0 entries.
func specialFeats(rng *tensor.RNG, nSrc, dim int) *tensor.Tensor {
	t := tensor.NewUninit(nSrc, dim)
	d := t.Data()
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(-1)), float32(math.Inf(1)),
		float32(math.Copysign(0, -1)),
	}
	for i := range d {
		if rng.Intn(17) == 0 {
			d[i] = specials[rng.Intn(len(specials))]
		} else {
			d[i] = float32(rng.Intn(7) - 3) // frequent exact ties
		}
	}
	return t
}

func tensorsBitEqualNaN(a, b *tensor.Tensor) (int, bool) {
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		x, y := ad[i], bd[i]
		if x != x || y != y {
			if x != x && y != y {
				continue
			}
			return i, false
		}
		if math.Float32bits(x) != math.Float32bits(y) {
			return i, false
		}
	}
	return 0, true
}

// sameValues reports whether a and b agree value for value: NaN with NaN,
// otherwise within a relative 1e-5 (which lets the sign of a zero differ).
func sameValues(a, b *tensor.Tensor) (int, bool) {
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		x, y := float64(ad[i]), float64(bd[i])
		if x == y || (x != x && y != y) {
			continue
		}
		if !(math.Abs(x-y) <= 1e-5*math.Max(1, math.Abs(x))) {
			return i, false
		}
	}
	return 0, true
}

// TestBucketedFusedBitExact is the bit-exactness contract of the
// degree-bucketed scheduler at its shipped constants: FusedAggregate with
// SIMD and scalar kernels, at parallelism 1, 2 and 8, gradient tracking on
// and off, must produce forward outputs and (when tracked) input gradients
// bitwise identical to the Parallelism(1) run — where every bucket collapses
// to rowPass(d, 0, dim) and max/min backward scatters the argmax directly —
// on a graph whose adjacency and reverse adjacency both have hubs, a mid
// band, leaves and empties, and features full of NaN, ±Inf, -0 and exact
// ties. A distinct per-element upstream gradient makes the comparison
// sensitive to argmax tie-breaking: routing any tied element to a different
// source changes the gradient. The Parallelism(1) run is itself held, value
// for value, to the SA scatter path, which shares no code with the buckets.
func TestBucketedFusedBitExact(t *testing.T) {
	defer tensor.SetParallelism(0)

	rng := tensor.NewRNG(99)
	const nDst, nSrc, dim = 1600, 400, 24
	adj := hubTestAdjacency(rng, nDst, nSrc)
	for _, a := range []*Adjacency{adj, adj.Reverse()} {
		if p := a.buckets(); len(p.hubs) == 0 || len(p.mid) == 0 || len(p.leaf) == 0 {
			t.Fatalf("fixture leaves a bucket empty: %d hubs, %d mid, %d leaves", len(p.hubs), len(p.mid), len(p.leaf))
		}
	}
	if rev := adj.Reverse(); rev.DstPtr[hubSource+1]-rev.DstPtr[hubSource] < hubMinDeg {
		t.Fatalf("source %d is not a hub of the reverse adjacency", hubSource)
	}

	// NaN and ±Inf absorb whatever is folded after them, and a 2600-edge hub
	// meets both in every column. Thin them out by column so the hub rows
	// also decide ties between ±Inf (columns 1 mod 3: no NaN) and between
	// finite values and signed zeros (columns 2 mod 3: finite only, scaled
	// off the integer grid so a sum depends on its order). In the finite
	// columns one late source holds the maximum and another the minimum, so
	// hub 0's extremes sit, several times over, in the later segments.
	feats := specialFeats(rng, nSrc, dim)
	fd := feats.Data()
	negZero := float32(math.Copysign(0, -1))
	for i, v := range fd {
		switch j := i % dim; {
		case j%3 == 1 && v != v:
			fd[i] = negZero
		case j%3 == 2:
			if v != v || math.IsInf(float64(v), 0) {
				v = negZero
			}
			fd[i] = v * 0.3
		}
	}
	for j := 2; j < dim; j += 3 {
		late := nSrc - 5 - lateSources
		fd[(late+j%lateSources)*dim+j] = 7
		fd[(late+(j+7)%lateSources)*dim+j] = -7
	}
	dOut := tensor.NewUninit(nDst, dim)
	dd := dOut.Data()
	for i := range dd {
		dd[i] = (float32(i%97) + 0.5) * 0.3 // distinct upstream gradients
	}
	ops := []tensor.ReduceOp{tensor.ReduceSum, tensor.ReduceMean, tensor.ReduceMax, tensor.ReduceMin}

	run := func(aggregate func(*Adjacency, *nn.Value, tensor.ReduceOp) *nn.Value, op tensor.ReduceOp, tracked bool) (*tensor.Tensor, *tensor.Tensor) {
		v := nn.Constant(feats.Clone())
		if tracked {
			v = nn.Param(feats.Clone())
		}
		out := aggregate(adj, v, op)
		if !tracked {
			return out.Data.Clone(), nil
		}
		out.BackwardWith(dOut)
		return out.Data.Clone(), v.Grad.Clone()
	}

	// Reference: one worker, SIMD kernels, tracked — checked against SA.
	tensor.SetParallelism(1)
	wantOut := map[tensor.ReduceOp]*tensor.Tensor{}
	wantGrad := map[tensor.ReduceOp]*tensor.Tensor{}
	for _, op := range ops {
		wantOut[op], wantGrad[op] = run(FusedAggregate, op, true)
		saOut, saGrad := run(ScatterAggregate, op, true)
		if i, ok := sameValues(wantOut[op], saOut); !ok {
			t.Fatalf("[op=%v] fused forward %v != scatter %v at %d", op, wantOut[op].Data()[i], saOut.Data()[i], i)
		}
		if i, ok := sameValues(wantGrad[op], saGrad); !ok {
			t.Fatalf("[op=%v] fused gradient %v != scatter %v at %d", op, wantGrad[op].Data()[i], saGrad.Data()[i], i)
		}
	}

	for _, simd := range []bool{true, false} {
		aggregate := FusedAggregate
		if !simd {
			aggregate = FusedAggregateScalar
		}
		for _, par := range []int{1, 2, 8} {
			for _, tracked := range []bool{true, false} {
				tensor.SetParallelism(par)
				cfg := fmt.Sprintf("simd=%v par=%d tracked=%v", simd, par, tracked)
				for _, op := range ops {
					out, grad := run(aggregate, op, tracked)
					if i, ok := tensorsBitEqualNaN(out, wantOut[op]); !ok {
						t.Fatalf("[%s op=%v] forward diverged at %d: %v vs %v",
							cfg, op, i, out.Data()[i], wantOut[op].Data()[i])
					}
					if tracked {
						if i, ok := tensorsBitEqualNaN(grad, wantGrad[op]); !ok {
							t.Fatalf("[%s op=%v] gradient diverged at %d: %v vs %v",
								cfg, op, i, grad.Data()[i], wantGrad[op].Data()[i])
						}
					}
				}
			}
		}
	}
}
