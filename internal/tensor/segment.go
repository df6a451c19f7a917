package tensor

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Segment kernels reduce rows that already sit grouped: segment s owns rows
// off[s]..off[s+1] of its input, which is how an HDG stores its neighbor
// instances per (root, type) slot (hdg.HDG.InstOffset — the paper's §4.1
// layout, whose destination array Dst2 "is implicit and never stored"). The
// scatter kernels in scatter.go reach the same values from a materialised
// destination index, scanning it once per worker; here each worker walks the
// row ranges of its own segments and nothing else.
//
// Per-segment order is a contract, like the dense products' (DESIGN.md
// "Upper HDG levels"): a sum starts at +0 and adds its rows in ascending row
// order, a product is rounded before it is added, an extreme folds copy-first
// with the first occurrence winning ties, and an empty segment yields a zero
// row. An output row therefore depends on neither the number of workers nor
// where the segments were split, and agrees bit for bit with the scatter
// composition it replaces (internal/engine/segment_oracle_test.go).

// identityIdx backs identity: 0, 1, 2, …, grown by replacement and never
// written once published.
var identityIdx atomic.Pointer[[]int32]

// identity returns the indices 0..n-1 — the index list SumRows and
// SumRowsScaled take for n consecutive rows.
func identity(n int) []int32 {
	if p := identityIdx.Load(); p != nil && len(*p) >= n {
		return (*p)[:n]
	}
	s := make([]int32, max(n, 1024))
	for i := range s {
		s[i] = int32(i)
	}
	identityIdx.Store(&s)
	return s[:n]
}

// checkSegments validates off against the number of rows it partitions and
// returns the segment count.
func checkSegments(off []int32, rows int) int {
	n := len(off) - 1
	if n < 0 || off[0] != 0 || int(off[n]) != rows {
		panic(fmt.Sprintf("tensor: segment offsets do not partition %d rows", rows))
	}
	for s := 0; s < n; s++ {
		if off[s] > off[s+1] {
			panic(fmt.Sprintf("tensor: segment offsets decrease at %d", s))
		}
	}
	return n
}

// SegmentReduce reduces each segment of values [rows, c] to one row of the
// [len(off)-1, c] result. For max and min a non-nil arg (one entry per output
// element) records the row that won each element, -1 in empty segments — the
// routing table SegmentReduceBackward reads.
func SegmentReduce(values *Tensor, off []int32, op ReduceOp, arg []int32) *Tensor {
	n, c := checkSegments(off, values.Rows()), values.Cols()
	fold, foldArg := MaxUnrolled, MaxArgUnrolled
	switch op {
	case ReduceSum, ReduceMean, ReduceMax:
	case ReduceMin:
		fold, foldArg = MinUnrolled, MinArgUnrolled
	default:
		panic(fmt.Sprintf("tensor: unsupported segment op %v", op))
	}
	out := NewUninit(n, c)
	vd := values.data
	ParallelForWeighted(n, off, c, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			dst := out.data[s*c : (s+1)*c]
			a, b := int(off[s]), int(off[s+1])
			switch {
			case a == b:
				clear(dst)
				if arg != nil {
					for j := s * c; j < (s+1)*c; j++ {
						arg[j] = -1
					}
				}
			case op == ReduceSum || op == ReduceMean:
				SumRows(dst, vd[a*c:], c, identity(b-a), true) // from +0: +0 + -0 is +0
				if op == ReduceMean {
					ScaleUnrolled(dst, 1/float32(b-a))
				}
			case arg == nil:
				copy(dst, vd[a*c:(a+1)*c])
				for i := a + 1; i < b; i++ {
					fold(dst, vd[i*c:(i+1)*c])
				}
			default:
				args := arg[s*c : (s+1)*c]
				copy(dst, vd[a*c:(a+1)*c])
				for j := range args {
					args[j] = int32(a)
				}
				for i := a + 1; i < b; i++ {
					foldArg(dst, args, vd[i*c:(i+1)*c], int32(i))
				}
			}
		}
	})
	return out
}

// SegmentReduceBackward returns the gradient of SegmentReduce's input given
// dOut [len(off)-1, c]: every row of a segment receives the segment's dOut
// row (times 1/size for a mean), or — for max and min — each dOut element
// goes to the row arg names and the rest stay zero.
func SegmentReduceBackward(dOut *Tensor, off []int32, op ReduceOp, arg []int32) *Tensor {
	n, c := len(off)-1, dOut.Cols()
	rows := int(off[n])
	od := dOut.data
	if op == ReduceMax || op == ReduceMin {
		grad := NewPooled(rows, c)
		ParallelForWeighted(n, off, c, func(lo, hi int) {
			for s := lo; s < hi; s++ {
				for j, src := range arg[s*c : (s+1)*c] {
					if src >= 0 {
						grad.data[int(src)*c+j] += od[s*c+j] // +0 + g, as the scatter path adds it
					}
				}
			}
		})
		return grad
	}
	grad := NewUninit(rows, c)
	ParallelForWeighted(n, off, c, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			a, b := int(off[s]), int(off[s+1])
			for i := a; i < b; i++ {
				row := grad.data[i*c : (i+1)*c]
				copy(row, od[s*c:(s+1)*c])
				if op == ReduceMean {
					ScaleUnrolled(row, 1/float32(b-a))
				}
			}
		}
	})
	return grad
}

// SegmentAttention is MAGNN's intermediate level as one computation: each
// instance row is scored y[i] = tanh(inst[i]·a) by the [dim, 1] scorer a,
// the scores are softmax-normalised within each segment into att, and
// out[s] = Σ att[i]·inst[i] over the segment's rows — the values of
// SegmentSoftmaxWeighted(tanh(inst @ a), inst, off), with neither the scores
// nor the weighted instances formed as separate passes over inst. saved is
// [2, rows]: att, then y, for SegmentAttentionBackward.
func SegmentAttention(inst, a *Tensor, off []int32) (out, saved *Tensor) {
	rows, c := inst.Rows(), inst.Cols()
	if a.Dims() != 2 || a.Dim(0) != c || a.Dim(1) != 1 {
		panic(fmt.Sprintf("tensor: segment attention scorer %v for %d columns", a.shape, c))
	}
	n := checkSegments(off, rows)
	out, saved = NewUninit(n, c), NewUninit(2, rows)
	segmentSoftmaxWeighted(out.data, saved.data[:rows], saved.data[rows:], inst.data, a.data, c, off)
	return out, saved
}

// SegmentSoftmaxWeighted is SegmentAttention with the [rows, 1] scores
// given: within each segment they are softmax-normalised into att, and
// out[s] = Σ att[i]·inst[i] over the segment's rows. att is returned for the
// backward pass.
func SegmentSoftmaxWeighted(scores, inst *Tensor, off []int32) (out, att *Tensor) {
	rows, c := inst.Rows(), inst.Cols()
	n := checkSegments(off, rows)
	if scores.Dims() != 2 || scores.Dim(0) != rows || scores.Dim(1) != 1 {
		panic(fmt.Sprintf("tensor: segment softmax scores %v for %d instances", scores.shape, rows))
	}
	out, att = NewUninit(n, c), NewUninit(rows, 1)
	segmentSoftmaxWeighted(out.data, att.data, scores.data, inst.data, nil, c, off)
	return out, att
}

// attentionBlockFloats bounds the instance floats SegmentAttention scores in
// one block (64 KiB): the block's rows are read by the scorer and read again
// by the weighted sums while they are still in cache.
const attentionBlockFloats = 1 << 14

// segmentSoftmaxWeighted is the one per-slot forward walk. Per slot: the max
// of the scores, exp(score − max) and their sum from +0 in row order, each
// divided by the sum unless it is zero (att; max-shifted as ScatterSoftmax
// does), then out[s] = SumRowsScaled of the slot's rows by att from +0. With
// a scorer (a != nil) the scores y are first computed, a block of whole
// slots at a time, as tanh of one p-ascending dot per row (dotRows, MatMul's
// order for one column); otherwise y holds them already.
func segmentSoftmaxWeighted(out, att, y, fd, a []float32, c int, off []int32) {
	n, cost := len(off)-1, c
	if a != nil {
		cost = 2 * c
	}
	ParallelForWeighted(n, off, cost, func(lo, hi int) {
		for s0 := lo; s0 < hi; {
			s1 := hi
			if a != nil {
				s1 = s0 + 1
				for s1 < hi && int(off[s1+1]-off[s0])*c <= attentionBlockFloats {
					s1++
				}
				r0, r1 := int(off[s0]), int(off[s1])
				ys := y[r0:r1]
				dotRows(ys, fd[r0*c:r1*c], a)
				for i, z := range ys {
					ys[i] = float32(math.Tanh(float64(z)))
				}
			}
			for s := s0; s < s1; s++ {
				dst := out[s*c : (s+1)*c]
				r0, r1 := int(off[s]), int(off[s+1])
				if r0 == r1 {
					clear(dst)
					continue
				}
				m := float32(math.Inf(-1))
				for _, v := range y[r0:r1] {
					m = max(m, v)
				}
				var sum float32
				for i := r0; i < r1; i++ {
					e := float32(math.Exp(float64(y[i] - m)))
					att[i] = e
					sum += e
				}
				if sum != 0 {
					for i := r0; i < r1; i++ {
						att[i] /= sum
					}
				}
				SumRowsScaled(dst, fd[r0*c:], c, identity(r1-r0), att[r0:r1], true)
			}
			s0 = s1
		}
	})
}

// SegmentSoftmaxWeightedBackward returns the gradients of
// SegmentSoftmaxWeighted's inputs given dOut [len(off)-1, dim] and the att it
// returned, each only when asked for (nil otherwise): dScores[i] =
// att[i]·(dAtt[i] − inner) and dInst[i] = att[i]·g, with the terms
// segmentSoftmaxWeightedBackward defines.
func SegmentSoftmaxWeightedBackward(dOut, att, inst *Tensor, off []int32, needScores, needInst bool) (dScores, dInst *Tensor) {
	rows, c := inst.Rows(), inst.Cols()
	var dsd, did []float32
	if needScores {
		dScores = NewUninit(rows, 1)
		dsd = dScores.data
	}
	if needInst {
		dInst = NewUninit(rows, c)
		did = dInst.data
	}
	segmentSoftmaxWeightedBackward(dsd, did, dOut.data, att.data, nil, inst.data, nil, c, off)
	return dScores, dInst
}

// SegmentAttentionBackward returns the gradients of SegmentAttention's
// inputs given dOut [len(off)-1, dim] and the saved [2, rows] it returned,
// each only when asked for (nil otherwise). With dZ[i] = dScores[i]·(1 −
// y[i]·y[i]) — tanh's derivative applied to SegmentSoftmaxWeighted's score
// gradient — dInst[i] = (+0 + dZ[i]·a) + att[i]·g, the bits of the scorer's
// outer product added to the weighted sum's term (two-term addition
// commutes), and dA = instᵀ @ dZ (TMatMul: p ascending over every instance,
// which is why it is a pass of its own).
func SegmentAttentionBackward(dOut, saved, inst, a *Tensor, off []int32, needInst, needA bool) (dInst, dA *Tensor) {
	rows, c := inst.Rows(), inst.Cols()
	dZ := NewUninit(rows, 1)
	var did []float32
	if needInst {
		dInst = NewUninit(rows, c)
		did = dInst.data
	}
	sd := saved.data
	segmentSoftmaxWeightedBackward(dZ.data, did, dOut.data, sd[:rows], sd[rows:], inst.data, a.data, c, off)
	if needA {
		dA = inst.TMatMul(dZ)
	}
	Recycle(dZ)
	return dInst, dA
}

// segmentSoftmaxWeightedBackward is the one per-slot backward walk. With g
// the slot's dOut row: dAtt[i] = g·inst[i] (one p-ascending sum), inner =
// Σ att[i]·dAtt[i] from +0 in row order, and dS[i] = att[i]·(dAtt[i] −
// inner), into ds when it is not nil; with a scorer (y and a not nil) ds
// receives dS[i]·(1 − y[i]·y[i]) instead. did, when not nil, receives each
// instance's row once: att[i]·g, or with a scorer (+0 + ds[i]·a) + att[i]·g.
// The dot runs on the Go loop: a slot holds a handful of rows, each against
// its own g, and the vector kernel takes eight rows per x.
func segmentSoftmaxWeightedBackward(ds, did, od, att, y, fd, a []float32, c int, off []int32) {
	n := len(off) - 1
	ParallelForWeighted(n, off, 2*c, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			r0, r1 := int(off[s]), int(off[s+1])
			g := od[s*c : (s+1)*c]
			if ds != nil && r0 < r1 {
				d := ds[r0:r1]
				dotRowsScalarLoop(d, fd[r0*c:r1*c], g)
				var inner float32
				for i, v := range d {
					inner += att[r0+i] * v
				}
				for i, v := range d {
					d[i] = att[r0+i] * (v - inner)
				}
				if y != nil {
					for i, v := range d {
						d[i] = v * (1 - y[r0+i]*y[r0+i])
					}
				}
			}
			if did == nil {
				continue
			}
			for i := r0; i < r1; i++ {
				row, w := did[i*c:(i+1)*c], att[i]
				if a == nil {
					copy(row, g)
					ScaleUnrolled(row, w)
					continue
				}
				clear(row)
				AxpyUnrolled(row, a, ds[i])
				AxpyUnrolled(row, g, w)
			}
		}
	})
}
