package nn

import (
	"math"

	"repro/internal/tensor"
)

// CrossEntropy computes the mean softmax cross-entropy between logits
// [n, classes] and integer labels. Rows where mask is false are excluded;
// a nil mask includes every row. The result is a scalar [1,1] Value.
//
// Forward and backward are fused: the gradient of the loss w.r.t. logits is
// (softmax - onehot)/m for included rows, which avoids materialising the
// log-softmax graph. The softmax and the gradient rows are split across the
// worker pool, row by row; the loss sum stays serial, in row order. Only the
// included rows of the softmax are computed, and only this node's backward
// reads them.
func CrossEntropy(logits *Value, labels []int32, mask []bool) *Value {
	n := logits.Data.Rows()
	if len(labels) != n {
		panic("nn: CrossEntropy labels length mismatch")
	}
	if mask != nil && len(mask) != n {
		panic("nn: CrossEntropy mask length mismatch")
	}
	probs := logits.Data.SoftmaxRows(mask)
	m := 0
	var loss float64
	for r := 0; r < n; r++ {
		if mask != nil && !mask[r] {
			continue
		}
		m++
		p := probs.At(r, int(labels[r])) // panics here, not in a worker, on a bad label
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(float64(p))
	}
	if m == 0 {
		m = 1
	}
	data := tensor.FromSlice([]float32{float32(loss / float64(m))}, 1, 1)
	out := newResult(data, func(out *Value) {
		seed := out.Grad.Data()[0]
		g := tensor.NewUninit(logits.Data.Shape()...) // every row written below
		c := g.Cols()
		gd, pd := g.Data(), probs.Data()
		inv := seed / float32(m)
		tensor.ParallelForGrain(n, tensor.GrainForCost(c), func(s, e int) {
			for r := s; r < e; r++ {
				row := gd[r*c : (r+1)*c]
				if mask != nil && !mask[r] {
					clear(row) // excluded rows get no gradient
					continue
				}
				for j, p := range pd[r*c : (r+1)*c] {
					row[j] = p * inv
				}
				row[labels[r]] -= inv
			}
		})
		logits.accumGradOwned(g)
	}, logits)
	out.scratch = probs
	return out
}

// Accuracy returns the fraction of rows (restricted to mask when non-nil)
// whose argmax matches the label.
func Accuracy(logits *tensor.Tensor, labels []int32, mask []bool) float64 {
	n := logits.Rows()
	c := logits.Cols()
	correct, total := 0, 0
	for r := 0; r < n; r++ {
		if mask != nil && !mask[r] {
			continue
		}
		total++
		best, bestV := 0, logits.At(r, 0)
		for j := 1; j < c; j++ {
			if v := logits.At(r, j); v > bestV {
				best, bestV = j, v
			}
		}
		if int32(best) == labels[r] {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
