package engine

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/hdg"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Strategy selects which execution paths the hybrid engine may use,
// matching the paper's Fig. 14 ablation.
type Strategy int

const (
	// StrategySA uses sparse scatter operations everywhere, materialising
	// per-edge messages — how PyG/PyTorch implementations execute.
	StrategySA Strategy = iota
	// StrategySAFA adds feature fusion at the bottom level.
	StrategySAFA
	// StrategyHA is full hybrid aggregation: fusion at the bottom, dense
	// tensor ops at the schema level. (The intermediate level is a segment
	// reduction under every strategy.)
	StrategyHA
)

// String returns the ablation label used in Fig. 14.
func (s Strategy) String() string {
	switch s {
	case StrategySA:
		return "SA"
	case StrategySAFA:
		return "SA+FA"
	case StrategyHA:
		return "HA"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Engine executes aggregation levels under a strategy.
type Engine struct {
	Strategy Strategy
}

// New returns an engine with the given strategy. The zero Strategy is SA —
// the slow ablation baseline, not the default: callers that mean "the
// production strategy" write StrategyHA, as the trainer, the serve planner,
// the cluster worker and the simulator do.
func New(s Strategy) *Engine { return &Engine{Strategy: s} }

// grainHist, when installed, observes the wall-clock duration of every
// fused-aggregation grain (one worker's destination range) in nanoseconds —
// the distribution a skewed graph shows as a heavy tail even when the
// stage totals look balanced. Disabled cost: one atomic load per kernel
// launch, not per grain.
var grainHist atomic.Pointer[metrics.Histogram]

// SetGrainHistogram installs (or, with nil, removes) the histogram
// observing per-grain fused-aggregation durations.
func SetGrainHistogram(h *metrics.Histogram) { grainHist.Store(h) }

// minHubSegEdges is the minimum edge count of one hub segment in the
// edge-parallel fold, amortising the partial-accumulator init and merge.
const minHubSegEdges = 64

// AggregateBottom aggregates source features into destination rows for the
// bottom (neighbor-instance) level, or for a DNFA model's 1-hop level. The
// SA strategy materialises messages; SA+FA and HA use feature fusion.
func (e *Engine) AggregateBottom(adj *Adjacency, feats *nn.Value, op tensor.ReduceOp) *nn.Value {
	if e.Strategy == StrategySA {
		return ScatterAggregate(adj, feats, op)
	}
	return fusedAggregate(adj, feats, op, true)
}

// AggregateIntermediate reduces instance features into (root, type) slots.
// Instances are stored contiguously per slot, so the level is a segment
// reduction over h.InstOffset: each instance has exactly one out-edge, its
// destination is implicit in its position (§4.1), and no index is built or
// scanned. The paper's three strategies differ at the bottom and schema
// levels only; this one runs the same way under all of them.
func (e *Engine) AggregateIntermediate(h *hdg.HDG, instFeats *nn.Value, op tensor.ReduceOp) *nn.Value {
	off := h.InstOffset
	var arg []int32
	if (op == tensor.ReduceMax || op == tensor.ReduceMin) && instFeats.RequiresGrad() {
		arg = make([]int32, (len(off)-1)*instFeats.Data.Cols())
	}
	out := tensor.SegmentReduce(instFeats.Data, off, op, arg)
	return nn.NewOp(out, func(out *nn.Value) {
		nn.AccumGradOwned(instFeats, tensor.SegmentReduceBackward(out.Grad, off, op, arg))
	}, instFeats)
}

// Attention is MAGNN's intermediate aggregation as one autograd node over
// h.InstOffset: each instance is scored tanh(inst_i · a) by the [dim, 1]
// scorer a (LevelUDF.Attention), the scores are softmax-normalised within
// each (root, type) slot, and the slot row is the attention-weighted sum of
// its instances — the values and gradients of
// SoftmaxWeighted(h, nn.Tanh(nn.MatMul(inst, a)), inst), bit for bit, with
// the scores scored a block of slots at a time next to the weighted sums
// that read the same rows, and each instance's gradient row written once.
// Each parent's gradient is formed only if it is read.
func (e *Engine) Attention(h *hdg.HDG, instFeats, a *nn.Value) *nn.Value {
	off := h.InstOffset
	data, saved := tensor.SegmentAttention(instFeats.Data, a.Data, off)
	out := nn.NewOp(data, func(out *nn.Value) {
		dInst, dA := tensor.SegmentAttentionBackward(out.Grad, saved, instFeats.Data, a.Data, off,
			instFeats.RequiresGrad(), a.RequiresGrad())
		if dInst != nil {
			nn.AccumGradOwned(instFeats, dInst)
		}
		if dA != nil {
			nn.AccumGradOwned(a, dA)
		}
	}, instFeats, a)
	nn.AttachScratch(out, saved)
	return out
}

// SoftmaxWeighted is Attention with the [instances, 1] scores computed
// outside: softmax attention over the instances of each (root, type) slot,
// returning the attention-weighted slot sums, on the same per-slot kernel.
func (e *Engine) SoftmaxWeighted(h *hdg.HDG, scores, instFeats *nn.Value) *nn.Value {
	off := h.InstOffset
	data, att := tensor.SegmentSoftmaxWeighted(scores.Data, instFeats.Data, off)
	out := nn.NewOp(data, func(out *nn.Value) {
		dScores, dInst := tensor.SegmentSoftmaxWeightedBackward(out.Grad, att, instFeats.Data, off,
			scores.RequiresGrad(), instFeats.RequiresGrad())
		if dScores != nil {
			nn.AccumGradOwned(scores, dScores)
		}
		if dInst != nil {
			nn.AccumGradOwned(instFeats, dInst)
		}
	}, scores, instFeats)
	nn.AttachScratch(out, att)
	return out
}

// AggregateSchema reduces slot features [roots*T, dim] to root features
// [roots, dim]. Under HA this is the dense reshape + middle reduction of
// Fig. 10 (zero-copy reshape, regular form shared by all roots); under
// SA/SA+FA it falls back to a sparse scatter keyed by root.
func (e *Engine) AggregateSchema(h *hdg.HDG, slotFeats *nn.Value, op tensor.ReduceOp) *nn.Value {
	nR, T := h.NumRoots(), h.NumTypes()
	if slotFeats.Data.Rows() != nR*T {
		panic(fmt.Sprintf("engine: schema level expects %d slot rows, got %d", nR*T, slotFeats.Data.Rows()))
	}
	if e.Strategy == StrategyHA {
		dim := slotFeats.Data.Dim(1)
		return nn.ReduceMiddle(nn.Reshape(slotFeats, nR, T, dim), op)
	}
	index := make([]int32, nR*T)
	for i := range index {
		index[i] = int32(i / T)
	}
	switch op {
	case tensor.ReduceSum:
		return nn.ScatterAdd(slotFeats, index, nR)
	case tensor.ReduceMean:
		return nn.ScatterMean(slotFeats, index, nR)
	case tensor.ReduceMax:
		return nn.ScatterMax(slotFeats, index, nR)
	case tensor.ReduceMin:
		return nn.ScatterMin(slotFeats, index, nR)
	default:
		panic(fmt.Sprintf("engine: unsupported schema op %v", op))
	}
}

// ScatterAggregate is the sparse (SA) path: materialise one message per
// edge with a gather, then reduce with a scatter. Memory cost is
// O(edges × dim) — the blow-up §4.2 describes.
func ScatterAggregate(adj *Adjacency, feats *nn.Value, op tensor.ReduceOp) *nn.Value {
	adj.validate(feats.Data.Rows())
	src, dst := adj.EdgeLists()
	messages := nn.Gather(feats, src)
	switch op {
	case tensor.ReduceSum:
		return nn.ScatterAdd(messages, dst, adj.NumDst)
	case tensor.ReduceMean:
		return nn.ScatterMean(messages, dst, adj.NumDst)
	case tensor.ReduceMax:
		return nn.ScatterMax(messages, dst, adj.NumDst)
	case tensor.ReduceMin:
		return nn.ScatterMin(messages, dst, adj.NumDst)
	default:
		panic(fmt.Sprintf("engine: unsupported scatter op %v", op))
	}
}

// FusedAggregate is the feature-fusion (FA) path: each worker streams the
// features of its destinations' sources directly into the destination rows,
// never materialising per-edge messages. The backward pass routes gradients
// through the cached reverse adjacency, also fused.
func FusedAggregate(adj *Adjacency, feats *nn.Value, op tensor.ReduceOp) *nn.Value {
	return fusedAggregate(adj, feats, op, true)
}

// FusedAggregateScalar is FusedAggregate with the SIMD inner kernels replaced
// by plain one-element scalar loops. It exists to emulate kernel-fusion systems
// without FlexGraph's SIMD acceleration (the paper attributes part of the
// DGL gap to AVX-512, §7.1), and for the SIMD ablation bench.
func FusedAggregateScalar(adj *Adjacency, feats *nn.Value, op tensor.ReduceOp) *nn.Value {
	return fusedAggregate(adj, feats, op, false)
}

func fusedAggregate(adj *Adjacency, feats *nn.Value, op tensor.ReduceOp, simd bool) *nn.Value {
	adj.validate(feats.Data.Rows())
	switch op {
	case tensor.ReduceSum, tensor.ReduceMean:
		return fusedSumMean(adj, feats, op, simd)
	case tensor.ReduceMax:
		return fusedExtreme(adj, feats, true, simd)
	case tensor.ReduceMin:
		return fusedExtreme(adj, feats, false, simd)
	default:
		panic(fmt.Sprintf("engine: unsupported fused op %v", op))
	}
}

// fusedForwardSum streams source rows into each destination. The first edge
// of a destination copies instead of accumulating, so the output needs no
// zero-fill pass; empty destinations are cleared explicitly. Copy-first is
// part of the order contract, not an identity: a sum that starts at +0 turns
// a lone -0 into +0 (0 + -0 == +0), so a destination whose only edge carries
// -0 stays -0 here and becomes +0 under the SA scatter; every other input
// gives the same bits either way. Hub destinations split their columns
// across workers, which leaves each column's edge-order fold untouched, so
// every schedule is bitwise identical.
func fusedForwardSum(adj *Adjacency, feats *tensor.Tensor, mean, simd bool) *tensor.Tensor {
	dim := feats.Cols()
	out := tensor.NewUninit(adj.NumDst, dim)
	od, fd := out.Data(), feats.Data()
	sum := tensor.SumRows
	if !simd {
		sum = tensor.SumRowsScalarLoop
	}
	// Fold columns [j0, j1) of destination d over its edge list in one call,
	// then scale them for the mean (elementwise, so a column split scales the
	// same values).
	runDst(adj, dim, func(d, j0, j1 int) {
		dst := od[d*dim+j0 : d*dim+j1]
		lo, hi := adj.DstPtr[d], adj.DstPtr[d+1]
		sum(dst, fd[j0:], dim, adj.SrcIdx[lo:hi], false)
		if mean && hi > lo {
			tensor.ScaleUnrolled(dst, 1/float32(hi-lo))
		}
	}, nil)
	return out
}

// fusedSumMean's backward pulls each source's gradient over the reverse
// adjacency in one call per source (or hub column range), copy-first like the
// forward; a mean weighs each destination's row by 1/deg.
func fusedSumMean(adj *Adjacency, feats *nn.Value, op tensor.ReduceOp, simd bool) *nn.Value {
	mean := op == tensor.ReduceMean
	data := fusedForwardSum(adj, feats.Data, mean, simd)
	backward := func(out *nn.Value) {
		rev := adj.Reverse()
		dim := feats.Data.Cols()
		grad := tensor.NewUninit(feats.Data.Shape()...)
		gd, od := grad.Data(), out.Grad.Data()
		sum, scaled := tensor.SumRows, tensor.SumRowsScaled
		if !simd {
			sum, scaled = tensor.SumRowsScalarLoop, tensor.SumRowsScaledScalarLoop
		}
		var degInv []float32
		if mean {
			degInv = tensor.GetBufUninit(adj.NumDst)
			for d := 0; d < adj.NumDst; d++ {
				degInv[d] = 0
				if deg := adj.DstPtr[d+1] - adj.DstPtr[d]; deg > 0 {
					degInv[d] = 1 / float32(deg)
				}
			}
		}
		runDst(rev, dim, func(v, j0, j1 int) {
			dst, dsts := gd[v*dim+j0:v*dim+j1], rev.SrcIdx[rev.DstPtr[v]:rev.DstPtr[v+1]]
			if mean {
				scaled(dst, od[j0:], dim, dsts, degInv, false)
			} else {
				sum(dst, od[j0:], dim, dsts, false)
			}
		}, nil)
		if mean {
			tensor.PutBuf(degInv)
		}
		nn.AccumGradOwned(feats, grad)
	}
	return nn.NewOp(data, backward, feats)
}

// fusedExtreme is the fused max/min path. Values follow the builtin
// max/min semantics (NaN propagates, +0 orders above -0 — see the kernel
// notes in tensor/simd.go); the argmax recording the winning source per
// element replaces exactly when the value fold does, so tracked and
// untracked runs agree bitwise. When feats does not require gradients the
// argmax buffer is skipped entirely (inference never reads it). Hub
// destinations fold edge-parallel segments into private partial
// accumulators merged in segment order — bit-exact for a selection fold,
// first occurrence still wins ties.
func fusedExtreme(adj *Adjacency, feats *nn.Value, max, simd bool) *nn.Value {
	dim := feats.Data.Cols()
	out := tensor.NewUninit(adj.NumDst, dim)
	tracked := feats.RequiresGrad()
	var argmax []int32
	if tracked {
		argmax = make([]int32, adj.NumDst*dim)
	}
	od, fd := out.Data(), feats.Data.Data()
	fold, foldArg := tensor.MaxUnrolled, tensor.MaxArgUnrolled
	mergeArg := tensor.MergeMaxArg
	inf := float32(math.Inf(-1))
	if !max {
		fold, foldArg, mergeArg = tensor.MinUnrolled, tensor.MinArgUnrolled, tensor.MergeMinArg
		inf = float32(math.Inf(1))
	}
	if !simd {
		fold, foldArg = tensor.MaxScalarLoop, tensor.MaxArgScalarLoop
		if !max {
			fold, foldArg = tensor.MinScalarLoop, tensor.MinArgScalarLoop
		}
	}
	// rowPass folds columns [j0, j1) of destination d in edge order,
	// copy-first so the first source wins all initial ties.
	rowPass := func(d, j0, j1 int) {
		base := d * dim
		dst := od[base+j0 : base+j1]
		lo, hi := adj.DstPtr[d], adj.DstPtr[d+1]
		if lo == hi {
			clear(dst)
			if tracked {
				args := argmax[base+j0 : base+j1]
				for j := range args {
					args[j] = -1
				}
			}
			return
		}
		src := int(adj.Src(lo))
		copy(dst, fd[src*dim+j0:src*dim+j1])
		if tracked {
			args := argmax[base+j0 : base+j1]
			for j := range args {
				args[j] = int32(src)
			}
			for p := lo + 1; p < hi; p++ {
				src = int(adj.Src(p))
				foldArg(dst, args, fd[src*dim+j0:src*dim+j1], int32(src))
			}
		} else {
			for p := lo + 1; p < hi; p++ {
				src = int(adj.Src(p))
				fold(dst, fd[src*dim+j0:src*dim+j1])
			}
		}
	}
	hubBody := func(d int) {
		base := d * dim
		lo, hi := adj.DstPtr[d], adj.DstPtr[d+1]
		bounds := edgeSegments(lo, hi, minHubSegEdges)
		nseg := len(bounds) - 1
		if nseg <= 1 {
			rowPass(d, 0, dim)
			return
		}
		// Segment 0 folds straight into the output row (copy-first, as the
		// scalar path); later segments fold into ±Inf-initialised private
		// partials. An uninitialised partial arg is never observed: a
		// partial element only beats the merged value once the fold
		// replaced its ±Inf identity, which also wrote the arg.
		partials := tensor.GetBufUninit((nseg - 1) * dim)
		var pargs []int32
		if tracked {
			pargs = make([]int32, (nseg-1)*dim)
		}
		tensor.ParallelForGrain(nseg, 1, func(s, e int) {
			for k := s; k < e; k++ {
				plo, phi := bounds[k], bounds[k+1]
				var dst []float32
				var args []int32
				if k == 0 {
					dst = od[base : base+dim]
					src := int(adj.Src(plo))
					copy(dst, fd[src*dim:(src+1)*dim])
					if tracked {
						args = argmax[base : base+dim]
						for j := range args {
							args[j] = int32(src)
						}
					}
					plo++
				} else {
					dst = partials[(k-1)*dim : k*dim]
					for j := range dst {
						dst[j] = inf
					}
					if tracked {
						args = pargs[(k-1)*dim : k*dim]
					}
				}
				if tracked {
					for p := plo; p < phi; p++ {
						src := int(adj.Src(p))
						foldArg(dst, args, fd[src*dim:(src+1)*dim], int32(src))
					}
				} else {
					for p := plo; p < phi; p++ {
						src := int(adj.Src(p))
						fold(dst, fd[src*dim:(src+1)*dim])
					}
				}
			}
		})
		for k := 1; k < nseg; k++ {
			if tracked {
				mergeArg(od[base:base+dim], argmax[base:base+dim], partials[(k-1)*dim:k*dim], pargs[(k-1)*dim:k*dim])
			} else {
				fold(od[base:base+dim], partials[(k-1)*dim:k*dim])
			}
		}
		tensor.PutBuf(partials)
	}
	runDst(adj, dim, rowPass, hubBody)
	backward := func(outV *nn.Value) {
		if tensor.Parallelism() <= 1 {
			// One worker: no write races to avoid, so scatter the argmax
			// gradients directly — O(NumDst*dim), cheaper than the
			// reverse-adjacency walk below.
			grad := tensor.NewPooled(feats.Data.Shape()...)
			gd, ogd := grad.Data(), outV.Grad.Data()
			for d := 0; d < adj.NumDst; d++ {
				base := d * dim
				for j := 0; j < dim; j++ {
					if src := argmax[base+j]; src >= 0 {
						gd[int(src)*dim+j] += ogd[base+j]
					}
				}
			}
			nn.AccumGradOwned(feats, grad)
			return
		}
		// Route gradients through the reverse adjacency so each worker owns
		// a disjoint range of source (gradient) rows — the seed ran this
		// serially. rev lists each source's destinations in ascending order,
		// so a multi-edge (same src->dst twice) appears as consecutive
		// duplicates and is skipped: the argmax check is per-destination, and
		// processing d twice would double-count its gradient.
		rev := adj.Reverse()
		grad := tensor.NewUninit(feats.Data.Shape()...)
		gd, ogd := grad.Data(), outV.Grad.Data()
		runDst(rev, dim, func(v, j0, j1 int) {
			row := gd[v*dim+j0 : v*dim+j1]
			clear(row)
			prev := int32(-1)
			for p := rev.DstPtr[v]; p < rev.DstPtr[v+1]; p++ {
				d := rev.SrcIdx[p]
				if d == prev {
					continue
				}
				prev = d
				base := int(d) * dim
				for j := j0; j < j1; j++ {
					if argmax[base+j] == int32(v) {
						row[j-j0] += ogd[base+j]
					}
				}
			}
		}, nil)
		nn.AccumGradOwned(feats, grad)
	}
	return nn.NewOp(out, backward, feats)
}
