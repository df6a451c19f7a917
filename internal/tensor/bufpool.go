package tensor

// This file implements the pooled tensor buffers behind the hot training
// path. The seed implementation allocated a fresh output tensor for every
// op in every layer of every epoch, so steady-state training churned the GC
// with short-lived [vertices, dim] buffers. A global, size-classed free list
// (GetBuf/PutBuf, backed by sync.Pool) removes that: kernels draw their
// outputs from it, and deterministic dead points return them — a gradient
// that has just been accumulated into its target (nn.AccumGradOwned), an
// interior gradient once the backward pass is over (nn.BackwardWith), and a
// step's forward outputs once the optimizer has stepped (nn.ReleaseGraph).
//
// Lifetime rule (see DESIGN.md "Dense path"): a buffer passed to
// PutBuf/Recycle must have no other live referers (including Reshape
// views). Parameter and optimizer state never comes from the pool's
// recycled side — parameters allocate once and live forever, which is safe
// because a Get without a matching Put is just a normal allocation.
//
// SetBufferPooling(false) turns the free list into plain allocations: the
// reference run that the recycled-buffer parity tests compare against.

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

var poolingOff atomic.Bool

// SetBufferPooling toggles the pooled buffer free list. When off, GetBuf
// degrades to make([]float32, n) and PutBuf/Recycle to no-ops, so no buffer
// is ever reused — what the parity tests (Predict after recycled epochs,
// fused Linear, the strategy sweep) run their reference under. Not a
// public option: nothing outside tests turns it off.
func SetBufferPooling(on bool) { poolingOff.Store(!on) }

// bufClasses[c] holds free buffers of exactly 1<<c floats. Entries are
// stored as unsafe.Pointer to the first element so Put/Get do not allocate
// interface boxes.
var bufClasses [31]sync.Pool

// GetBuf returns a zeroed []float32 of length n, reusing a pooled buffer
// when one is available.
func GetBuf(n int) []float32 {
	b := GetBufUninit(n)
	clear(b)
	return b
}

// GetBufUninit is GetBuf without the zeroing pass: the contents are
// unspecified and the caller must overwrite every element it reads.
func GetBufUninit(n int) []float32 {
	if n <= 0 {
		return nil
	}
	if poolingOff.Load() {
		return make([]float32, n)
	}
	c := bits.Len(uint(n - 1)) // smallest c with 1<<c >= n
	if c >= len(bufClasses) {
		return make([]float32, n)
	}
	if v := bufClasses[c].Get(); v != nil {
		return unsafe.Slice((*float32)(v.(unsafe.Pointer)), 1<<c)[:n]
	}
	return make([]float32, n, 1<<c)
}

// PutBuf returns buf's storage to the free list. The caller must not use
// buf (or any alias of it) afterwards.
func PutBuf(buf []float32) {
	c := cap(buf)
	if c == 0 || poolingOff.Load() {
		return
	}
	cls := bits.Len(uint(c)) - 1 // largest power of two <= cap
	if cls >= len(bufClasses) {
		return
	}
	full := buf[:1<<cls]
	bufClasses[cls].Put(unsafe.Pointer(&full[0]))
}

// NewPooled returns a zero-filled tensor whose buffer is drawn from the
// pooled free list. Semantically identical to New; use Recycle to return
// the buffer when the tensor dies at a known point.
func NewPooled(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: GetBuf(n)}
}

// NewUninit returns a pooled tensor with unspecified contents. The caller
// must write every element before any read (including rows it only ever
// means to leave "zero" — clear them explicitly).
func NewUninit(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: GetBufUninit(n)}
}

// Recycle returns t's buffer to the free list and poisons t (its data
// becomes nil, so accidental reuse fails loudly instead of corrupting a
// future tensor). Only call it on tensors you own outright, with no live
// views of the buffer.
func Recycle(t *Tensor) {
	if t == nil || t.data == nil {
		return
	}
	PutBuf(t.data)
	t.data = nil
}
