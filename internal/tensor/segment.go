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

// SegmentSoftmaxWeighted is MAGNN's intermediate level in one walk: within
// each segment the [rows, 1] scores are softmax-normalised (max-shifted, as
// ScatterSoftmax does; a zero sum leaves the exponentials undivided) into
// att, and out[s] = Σ att[i]·inst[i] over the segment's rows. The [rows, dim]
// tensor of weighted instances is never formed. att is returned for the
// backward pass.
func SegmentSoftmaxWeighted(scores, inst *Tensor, off []int32) (out, att *Tensor) {
	rows, c := inst.Rows(), inst.Cols()
	n := checkSegments(off, rows)
	if scores.Dims() != 2 || scores.Dim(0) != rows || scores.Dim(1) != 1 {
		panic(fmt.Sprintf("tensor: segment softmax scores %v for %d instances", scores.shape, rows))
	}
	out, att = NewUninit(n, c), NewUninit(rows, 1)
	sd, ad, fd := scores.data, att.data, inst.data
	ParallelForWeighted(n, off, c, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			dst := out.data[s*c : (s+1)*c]
			a, b := int(off[s]), int(off[s+1])
			if a == b {
				clear(dst)
				continue
			}
			m := float32(math.Inf(-1))
			for _, v := range sd[a:b] {
				m = max(m, v)
			}
			var sum float32
			for i := a; i < b; i++ {
				e := float32(math.Exp(float64(sd[i] - m)))
				ad[i] = e
				sum += e
			}
			if sum != 0 {
				for i := a; i < b; i++ {
					ad[i] /= sum
				}
			}
			SumRowsScaled(dst, fd[a*c:], c, identity(b-a), ad[a:b], true)
		}
	})
	return out, att
}

// SegmentSoftmaxWeightedBackward returns the gradients of
// SegmentSoftmaxWeighted's inputs given dOut [len(off)-1, dim] and the att it
// returned, each only when asked for (nil otherwise). With g the segment's
// dOut row, dAtt[i] = g·inst[i] (one p-ascending sum, dotRows),
// inner = Σ att[i]·dAtt[i] over the segment from +0 in row order,
// dScores[i] = att[i]·(dAtt[i] − inner) and dInst[i] = att[i]·g.
func SegmentSoftmaxWeightedBackward(dOut, att, inst *Tensor, off []int32, needScores, needInst bool) (dScores, dInst *Tensor) {
	n, rows, c := len(off)-1, inst.Rows(), inst.Cols()
	var dsd, did []float32
	if needScores {
		dScores = NewUninit(rows, 1)
		dsd = dScores.data
	}
	if needInst {
		dInst = NewUninit(rows, c)
		did = dInst.data
	}
	od, ad, fd := dOut.data, att.data, inst.data
	ParallelForWeighted(n, off, 2*c, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			a, b := int(off[s]), int(off[s+1])
			g := od[s*c : (s+1)*c]
			if did != nil {
				for i := a; i < b; i++ {
					row, w := did[i*c:(i+1)*c], ad[i]
					for j, gv := range g {
						row[j] = gv * w
					}
				}
			}
			if dsd == nil || a == b {
				continue
			}
			dAtt := dsd[a:b]
			dotRows(dAtt, fd[a*c:b*c], g)
			var inner float32
			for i, d := range dAtt {
				inner += ad[a+i] * d
			}
			for i, d := range dAtt {
				dAtt[i] = ad[a+i] * (d - inner)
			}
		}
	})
	return dScores, dInst
}
