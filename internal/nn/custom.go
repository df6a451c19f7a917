package nn

import "repro/internal/tensor"

// NewOp builds a Value from a custom differentiable operation. data is the
// forward result; backward, invoked during the backward pass with the
// output node (whose Grad is populated), must push gradients into the
// parents via AccumGrad. backward is dropped when no parent requires grad.
// data must be a tensor the operation owns outright — not a view or alias of
// a tensor that outlives the training step — because ReleaseGraph returns it
// to the buffer pool when the step ends.
//
// This is the extension point the execution engine uses to register its
// fused aggregation kernels with autograd, mirroring how the paper's
// libgrape-lite operations "have to be registered in PyTorch" (§6).
func NewOp(data *tensor.Tensor, backward func(out *Value), parents ...*Value) *Value {
	return newResult(data, backward, parents...)
}

// AccumGradOwned adds grad — a tensor the caller owns outright and will not
// touch again — into v's gradient accumulator (a no-op for nodes that do not
// require grad). For use by custom operations built with NewOp. On first
// accumulation the tensor is adopted as v's accumulator (no zero-fill, no add
// pass); otherwise it is added and its buffer recycled. The tensor must not
// be a view.
func AccumGradOwned(v *Value, grad *tensor.Tensor) { v.accumGradOwned(grad) }

// AttachScratch hands v a forward by-product that only v's backward closure
// reads (an attention vector, an argmax table held as a tensor). Like v's
// Data it must be owned outright: ReleaseGraph returns it to the buffer pool
// when the step ends. A v with no backward — no parent requires grad — never
// reads it, so it is returned now.
func AttachScratch(v *Value, scratch *tensor.Tensor) {
	if v.backward == nil {
		tensor.Recycle(scratch)
		return
	}
	v.scratch = scratch
}
