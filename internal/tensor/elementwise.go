package tensor

import (
	"fmt"
	"math"
)

// streamGrain is the grain, in elements, of the streaming passes below (Add,
// AddInPlace, FromZero): a chunk streams at least 512 KB, which takes longer
// than waking a parked worker. The per-layer tensors of a serving batch
// (benchmark serve_direct_uniform: up to 1 024 rows of 64) stay inline; the
// whole-graph tensors of a training epoch split.
const streamGrain = 1 << 16

// Add returns t + o elementwise, in a pooled tensor. Shapes must match,
// except that o may be a row vector [1, C] broadcast across t's rows.
// Same-shape operands take one copy-and-add pass per chunk of elements:
// every element is t[i] + o[i], one rounded add, however the range is split.
func (t *Tensor) Add(o *Tensor) *Tensor {
	if !t.SameShape(o) {
		out := t.Clone()
		out.AddInPlace(o)
		return out
	}
	out := NewUninit(t.shape...) // every element written below
	ParallelForGrain(len(out.data), streamGrain, func(s, e int) {
		copy(out.data[s:e], t.data[s:e])
		AddUnrolled(out.data[s:e], o.data[s:e])
	})
	return out
}

// AddInPlace adds o into t, with row-vector broadcasting as in Add.
func (t *Tensor) AddInPlace(o *Tensor) {
	if t.SameShape(o) {
		ParallelForGrain(len(t.data), streamGrain, func(s, e int) {
			AddUnrolled(t.data[s:e], o.data[s:e])
		})
		return
	}
	if o.Dims() == 2 && o.Dim(0) == 1 && o.Dim(1) == t.Cols() {
		c := t.Cols()
		for r := 0; r < t.Rows(); r++ {
			AddUnrolled(t.data[r*c:(r+1)*c], o.data)
		}
		return
	}
	panic(fmt.Sprintf("tensor: Add shape mismatch %v vs %v", t.shape, o.shape))
}

// FromZero returns +0 + t elementwise, in a pooled tensor: what a
// zero-filled accumulator holds after AddInPlace(t), without the separate
// zero-fill pass. Its bits are t's except that -0 comes out +0, so Clone is
// not a substitute.
func (t *Tensor) FromZero() *Tensor {
	out := NewUninit(t.shape...) // every element written below
	ParallelForGrain(len(out.data), streamGrain, func(s, e int) {
		clear(out.data[s:e])
		AddUnrolled(out.data[s:e], t.data[s:e])
	})
	return out
}

// Sub returns t - o elementwise.
func (t *Tensor) Sub(o *Tensor) *Tensor {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: Sub shape mismatch %v vs %v", t.shape, o.shape))
	}
	out := t.Clone()
	for i := range out.data {
		out.data[i] -= o.data[i]
	}
	return out
}

// Mul returns the elementwise (Hadamard) product t * o.
func (t *Tensor) Mul(o *Tensor) *Tensor {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: Mul shape mismatch %v vs %v", t.shape, o.shape))
	}
	out := t.Clone()
	for i := range out.data {
		out.data[i] *= o.data[i]
	}
	return out
}

// Scale returns a*t.
func (t *Tensor) Scale(a float32) *Tensor {
	out := t.Clone()
	ScaleUnrolled(out.data, a)
	return out
}

// AddScaledInPlace computes t += a*o. Shapes must match exactly.
func (t *Tensor) AddScaledInPlace(o *Tensor, a float32) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: AddScaled shape mismatch %v vs %v", t.shape, o.shape))
	}
	AxpyUnrolled(t.data, o.data, a)
}

// ReLU returns max(t, 0) elementwise.
func (t *Tensor) ReLU() *Tensor {
	out := t.Clone()
	for i, v := range out.data {
		if v < 0 {
			out.data[i] = 0
		}
	}
	return out
}

// ReLUMask returns a tensor with 1 where t > 0 and 0 elsewhere, used by the
// ReLU backward pass.
func (t *Tensor) ReLUMask() *Tensor {
	out := New(t.shape...)
	for i, v := range t.data {
		if v > 0 {
			out.data[i] = 1
		}
	}
	return out
}

// Sigmoid returns 1/(1+exp(-t)) elementwise.
func (t *Tensor) Sigmoid() *Tensor {
	out := New(t.shape...)
	for i, v := range t.data {
		out.data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	return out
}

// transcendentalCost is the grain hint for one math.Tanh-sized call, in
// single-element operations.
const transcendentalCost = 32

// Tanh returns tanh(t) elementwise, in a pooled tensor.
func (t *Tensor) Tanh() *Tensor {
	out := NewUninit(t.shape...) // every element written below
	ParallelForGrain(len(t.data), GrainForCost(transcendentalCost), func(s, e int) {
		for i := s; i < e; i++ {
			out.data[i] = float32(math.Tanh(float64(t.data[i])))
		}
	})
	return out
}

// SoftmaxRows applies a numerically stable softmax across each row of a
// tensor viewed as [Rows, Cols], into a pooled tensor. A non-nil mask (one
// entry per row) restricts it to the rows where the mask is true: the other
// rows of the result are left unwritten, so their contents are unspecified.
// Rows are independent, so splitting them across workers changes no bits.
func (t *Tensor) SoftmaxRows(mask []bool) *Tensor {
	out := NewUninit(t.shape...) // softmaxInto writes every element it is given
	c := t.Cols()
	ParallelForGrain(t.Rows(), GrainForCost(c*transcendentalCost), func(s, e int) {
		for r := s; r < e; r++ {
			if mask == nil || mask[r] {
				softmaxInto(out.data[r*c:(r+1)*c], t.data[r*c:(r+1)*c])
			}
		}
	})
	return out
}

func softmaxInto(dst, src []float32) {
	maxv := float32(math.Inf(-1))
	for _, v := range src {
		if v > maxv {
			maxv = v
		}
	}
	var sum float32
	for i, v := range src {
		e := float32(math.Exp(float64(v - maxv)))
		dst[i] = e
		sum += e
	}
	if sum == 0 {
		return
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}

// Concat concatenates tensors along dimension 1; all inputs must be 2-D with
// the same row count.
func Concat(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Concat of no tensors")
	}
	rows := ts[0].Rows()
	cols := 0
	for _, t := range ts {
		if t.Dims() != 2 || t.Rows() != rows {
			panic(fmt.Sprintf("tensor: Concat needs 2-D tensors with %d rows, got %v", rows, t.shape))
		}
		cols += t.Dim(1)
	}
	out := NewUninit(rows, cols) // the inputs' widths cover every column
	off := 0
	for _, t := range ts {
		c := t.Dim(1)
		for r := 0; r < rows; r++ {
			copy(out.data[r*cols+off:r*cols+off+c], t.Row(r))
		}
		off += c
	}
	return out
}

// SliceCols returns a copy of columns [off, off+w) of a 2-D tensor — one
// piece of the inverse of Concat.
func (t *Tensor) SliceCols(off, w int) *Tensor {
	if t.Dims() != 2 || off < 0 || w < 0 || off+w > t.Dim(1) {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) of shape %v", off, off+w, t.shape))
	}
	rows, cols := t.Rows(), t.Dim(1)
	p := NewUninit(rows, w) // every element written below
	for r := 0; r < rows; r++ {
		copy(p.Row(r), t.data[r*cols+off:r*cols+off+w])
	}
	return p
}
