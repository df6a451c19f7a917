// Package tensor implements the dense and sparse numerical substrate that
// FlexGraph-Go builds on. It plays the role PyTorch's tensor library plays in
// the paper: row-major float32 tensors, matrix multiplication, elementwise
// kernels, reductions, the scatter family of operations (Fig. 8 of the
// paper), and COO/CSR/CSC sparse matrices with SpMM.
//
// Tensors are contiguous and row-major. Reshape returns an O(1) view sharing
// the underlying buffer, mirroring the "reshaping only changes the logical
// layout" property the paper relies on for the dense schema-level aggregation
// (Fig. 10).
//
// Shape mismatches are programming errors and panic with a descriptive
// message; data-dependent failures return errors.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, contiguous, row-major float32 tensor.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly, not copied; len(data) must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of the given shape filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying buffer. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Rows returns the size of the first dimension.
func (t *Tensor) Rows() int { return t.shape[0] }

// Cols returns the product of all dimensions after the first; for a matrix
// this is the column count, and in general it is the row stride.
func (t *Tensor) Cols() int {
	c := 1
	for _, d := range t.shape[1:] {
		c *= d
	}
	return c
}

// Row returns a slice aliasing row i of a tensor viewed as [Rows, Cols].
func (t *Tensor) Row(i int) []float32 {
	c := t.Cols()
	return t.data[i*c : (i+1)*c]
}

// At returns the element at the given multidimensional index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set writes v at the given multidimensional index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	// The panics format a copy of idx: handing idx itself to fmt would make
	// every caller's variadic index escape — one heap allocation per At/Set.
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", append([]int(nil), idx...), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", append([]int(nil), idx...), t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := NewUninit(t.shape...)
	copy(out.data, t.data)
	return out
}

// CopyFrom copies src's data into t. Shapes must have equal element counts.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.data, src.data)
}

// Reshape returns a view with the new shape sharing t's buffer. The element
// count must match. One dimension may be -1 and is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: Reshape with more than one -1 dimension")
			}
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || len(t.data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		shape[infer] = len(t.data) / known
		known *= shape[infer]
	}
	if known != len(t.data) {
		panic(fmt.Sprintf("tensor: Reshape %v to %v changes element count", t.shape, shape))
	}
	return &Tensor{shape: shape, data: t.data}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether t and o have the same shape and all elements
// within tol of each other.
func (t *Tensor) ApproxEqual(o *Tensor, tol float32) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.data {
		d := t.data[i] - o.data[i]
		if d < -tol || d > tol {
			return false
		}
		if math.IsNaN(float64(t.data[i])) != math.IsNaN(float64(o.data[i])) {
			return false
		}
	}
	return true
}

// String renders small tensors fully and larger ones by shape only.
func (t *Tensor) String() string {
	if len(t.data) > 64 {
		return fmt.Sprintf("Tensor%v", t.shape)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v ", t.shape)
	if len(t.shape) == 2 {
		b.WriteString("[")
		for r := 0; r < t.shape[0]; r++ {
			if r > 0 {
				b.WriteString("; ")
			}
			for c := 0; c < t.shape[1]; c++ {
				if c > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%g", t.At(r, c))
			}
		}
		b.WriteString("]")
		return b.String()
	}
	fmt.Fprintf(&b, "%v", t.data)
	return b.String()
}

// NumBytes returns the memory footprint of the tensor's data buffer.
func (t *Tensor) NumBytes() int64 { return int64(len(t.data)) * 4 }
