package tensor

import (
	"fmt"
	"math"
)

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float32 {
	var s float32
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float32 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float32(len(t.data))
}

// SumRows reduces a [R, C] tensor to [1, C] by summing over rows.
func (t *Tensor) SumRows() *Tensor {
	c := t.Cols()
	out := NewPooled(1, c)
	for r := 0; r < t.Rows(); r++ {
		AddUnrolled(out.data, t.data[r*c:(r+1)*c])
	}
	return out
}

// ReduceMiddle reduces a [N, G, D] tensor to [N, D] by combining the G
// middle-dimension slices of each of the N rows. This is the dense
// schema-level aggregation of the paper's Fig. 10: the [2n, dim] tensor of
// metapath-type features is reshaped (for free) to [n, 2, dim] and reduced
// over the middle dimension. op selects the reduction.
func (t *Tensor) ReduceMiddle(op ReduceOp) *Tensor {
	if t.Dims() != 3 {
		panic(fmt.Sprintf("tensor: ReduceMiddle on shape %v, want 3-D", t.shape))
	}
	n, g, d := t.Dim(0), t.Dim(1), t.Dim(2)
	out := NewUninit(n, d) // every element written below
	if g == 0 {
		identity := float32(0)
		if op == ReduceMin {
			identity = float32(math.Inf(1))
		} else if op == ReduceMax {
			identity = float32(math.Inf(-1))
		}
		out.Fill(identity)
		return out
	}
	ParallelForGrain(n, GrainForCost(g*d), func(rs, re int) {
		for i := rs; i < re; i++ {
			dst := out.data[i*d : (i+1)*d]
			base := i * g * d
			copy(dst, t.data[base:base+d])
			for j := 1; j < g; j++ {
				src := t.data[base+j*d : base+(j+1)*d]
				switch op {
				case ReduceSum, ReduceMean:
					AddUnrolled(dst, src)
				case ReduceMax:
					MaxUnrolled(dst, src)
				case ReduceMin:
					MinUnrolled(dst, src)
				}
			}
			if op == ReduceMean {
				ScaleUnrolled(dst, 1/float32(g))
			}
		}
	})
	return out
}

// ReduceOp selects the accumulation used by reductions and scatter ops.
type ReduceOp int

// Reduction operators. ReduceMean divides the accumulated sum by the number
// of contributions.
const (
	ReduceSum ReduceOp = iota
	ReduceMean
	ReduceMax
	ReduceMin
)

// String returns the operator name.
func (op ReduceOp) String() string {
	switch op {
	case ReduceSum:
		return "sum"
	case ReduceMean:
		return "mean"
	case ReduceMax:
		return "max"
	case ReduceMin:
		return "min"
	default:
		return fmt.Sprintf("ReduceOp(%d)", int(op))
	}
}
