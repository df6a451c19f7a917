// Package nn implements the neural-network runtime of FlexGraph-Go: a
// reverse-mode autograd tape over the tensor package, the layers needed by
// the paper's Update stages (Linear, ReLU, concat), differentiable versions
// of the scatter/gather aggregation primitives so whole GNN models train
// end-to-end, cross-entropy loss, and the SGD and Adam optimizers.
//
// It plays the role PyTorch plays in the paper's architecture (Fig. 12): the
// NN framework underneath the GNN execution engine.
package nn

import (
	"repro/internal/tensor"
)

// Value is a node in the autograd graph: a tensor plus the bookkeeping
// needed to backpropagate through the operation that produced it.
type Value struct {
	Data *tensor.Tensor
	Grad *tensor.Tensor

	requiresGrad bool
	prev         []*Value
	backward     func() // accumulates into prev nodes' Grad

	// view marks an interior node whose Data shares its parent's buffer
	// (Reshape); ReleaseGraph must not return that buffer a second time.
	view bool
	// scratch is a forward by-product the backward closure reads (the loss's
	// softmax); it dies with the step like Data does.
	scratch *tensor.Tensor
}

// NewValue wraps t as a leaf node. If requiresGrad is true the node
// accumulates gradients during Backward.
func NewValue(t *tensor.Tensor, requiresGrad bool) *Value {
	return &Value{Data: t, requiresGrad: requiresGrad}
}

// Constant wraps t as a non-differentiable leaf.
func Constant(t *tensor.Tensor) *Value { return NewValue(t, false) }

// Param wraps t as a trainable leaf.
func Param(t *tensor.Tensor) *Value { return NewValue(t, true) }

// RequiresGrad reports whether the node participates in backprop.
func (v *Value) RequiresGrad() bool { return v.requiresGrad }

// newResult builds an interior node whose gradient flows to prev. The node
// requires grad iff any parent does; backward is dropped entirely otherwise
// so inference-only graphs cost nothing extra.
func newResult(data *tensor.Tensor, backward func(out *Value), prev ...*Value) *Value {
	out := &Value{Data: data, prev: prev}
	for _, p := range prev {
		if p.requiresGrad {
			out.requiresGrad = true
			break
		}
	}
	if out.requiresGrad && backward != nil {
		out.backward = func() { backward(out) }
	}
	return out
}

// accumGrad adds g into v.Grad, allocating it on first use. Nodes that do
// not require grad ignore the call. Accumulators come from the pooled
// free list: interior-node accumulators are recycled at the end of every
// backward pass, so steady-state training reuses the same buffers instead
// of churning the GC. The first accumulation is g.FromZero(): the bits of a
// zero-filled accumulator plus g, in one pass.
func (v *Value) accumGrad(g *tensor.Tensor) {
	if !v.requiresGrad {
		return
	}
	if v.Grad == nil {
		v.Grad = g.FromZero()
		return
	}
	v.Grad.AddInPlace(g)
}

// accumGradOwned is accumGrad for a gradient tensor the caller owns and
// will not touch again: on first accumulation the tensor is adopted as the
// accumulator outright (saving a zero-fill and a full add pass), and
// otherwise its buffer is recycled after the add.
func (v *Value) accumGradOwned(g *tensor.Tensor) {
	if !v.requiresGrad {
		tensor.Recycle(g)
		return
	}
	if v.Grad == nil {
		v.Grad = g
		return
	}
	v.Grad.AddInPlace(g)
	tensor.Recycle(g)
}

// ZeroGrad clears the accumulated gradient.
func (v *Value) ZeroGrad() {
	if v.Grad != nil {
		v.Grad.Zero()
	}
}

// Backward runs reverse-mode differentiation from v, which must be a scalar
// (1x1) unless seed is supplied. The gradient of v w.r.t. itself is 1.
func (v *Value) Backward() {
	if v.Data.Len() != 1 {
		panic("nn: Backward on non-scalar; use BackwardWith for custom seeds")
	}
	v.BackwardWith(tensor.Ones(v.Data.Shape()...))
}

// BackwardWith seeds the backward pass with dOut and propagates gradients to
// every reachable leaf that requires grad.
//
// When the pass completes, the gradient accumulators of interior nodes
// (anything produced by an operation, as opposed to leaves) are recycled
// into the pooled free list and their Grad reset to nil: only leaf
// gradients — parameters and explicitly created leaves — survive the call.
// Interior gradients were never part of the package's observable contract;
// recycling them makes steady-state training reuse one step's gradient
// buffers for the next step's activations.
func (v *Value) BackwardWith(dOut *tensor.Tensor) {
	order := topoSort(v)
	if v.Grad == nil {
		v.Grad = tensor.NewPooled(v.Data.Shape()...)
	}
	v.Grad.AddInPlace(dOut)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.backward != nil && n.Grad != nil {
			n.backward()
		}
	}
	for _, n := range order {
		if n.backward != nil && n.Grad != nil {
			g := n.Grad
			n.Grad = nil
			tensor.Recycle(g)
		}
	}
}

// ReleaseGraph ends a training step: it returns to the buffer pool the
// forward output (and backward scratch) of every interior node reachable
// from root, so the next step's forward pass draws the same buffers again
// instead of allocating. Call it once the step has no further use for its
// activations — after Backward, and after reading anything wanted from them.
// root keeps its own Data (the loss scalar stays readable); leaves —
// parameters, constants, input features — are never touched, and neither is
// a graph nobody releases (Predict, Evaluate, serving).
//
// Every operation in this package, and every NewOp, produces a Data tensor it
// owns outright, with one exception the walk skips: a Reshape view shares its
// parent's buffer. Released tensors are poisoned (nil data), so a use after
// the step fails loudly rather than reading a recycled buffer.
func ReleaseGraph(root *Value) {
	visited := map[*Value]bool{root: true}
	stack := append([]*Value(nil), root.prev...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[n] || n.prev == nil {
			continue
		}
		visited[n] = true
		stack = append(stack, n.prev...)
		if !n.view {
			tensor.Recycle(n.Data)
		}
		tensor.Recycle(n.scratch)
	}
	tensor.Recycle(root.scratch)
}

func topoSort(root *Value) []*Value {
	var order []*Value
	visited := make(map[*Value]bool)
	// Iterative DFS to avoid stack overflow on deep graphs.
	type frame struct {
		node *Value
		next int
	}
	stack := []frame{{root, 0}}
	visited[root] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.node.prev) {
			child := f.node.prev[f.next]
			f.next++
			if !visited[child] && child.requiresGrad {
				visited[child] = true
				stack = append(stack, frame{child, 0})
			}
			continue
		}
		order = append(order, f.node)
		stack = stack[:len(stack)-1]
	}
	return order
}
