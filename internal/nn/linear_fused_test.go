package nn

// Parity and lifetime tests for the dense path: the fused Linear node against
// the three-node chain it replaced (kept here, and only here, as the
// reference), gradients nobody reads are never formed, and ReleaseGraph
// returns a step's forward buffers without touching leaves.

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// unfusedLinear is the MatMul → Add(bias) → ReLU composition Linear.Apply
// replaced: three tape nodes, three [n, out] forward buffers.
func unfusedLinear(l *Linear, x *Value, relu bool) *Value {
	y := MatMul(x, l.W)
	if l.B != nil {
		y = Add(y, l.B)
	}
	if relu {
		y = ReLU(y)
	}
	return y
}

func sameBits(t *testing.T, what string, want, got *tensor.Tensor) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: nil mismatch (want nil: %v, got nil: %v)", what, want == nil, got == nil)
	}
	if want == nil {
		return
	}
	if !want.SameShape(got) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	wd, gd := want.Data(), got.Data()
	for i := range wd {
		if math.Float32bits(wd[i]) != math.Float32bits(gd[i]) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, gd[i], wd[i])
		}
	}
}

// TestFusedLinearMatchesComposition: forward values and every leaf gradient
// (W, b, and x when it is a leaf that requires one) are bit-identical to the
// unfused chain — with and without bias, with and without ReLU, at kernel
// parallelism 1 and 8, on inputs with exact zeros (ReLU activations) and a
// seed gradient with negative entries under closed gates.
func TestFusedLinearMatchesComposition(t *testing.T) {
	defer tensor.SetParallelism(0)
	for _, par := range []int{1, 8} {
		tensor.SetParallelism(par)
		for _, shape := range [][3]int{{1, 1, 1}, {5, 3, 4}, {33, 7, 1}, {257, 64, 16}, {600, 32, 65}} {
			for _, bias := range []bool{false, true} {
				for _, relu := range []bool{false, true} {
					for _, xGrad := range []bool{false, true} {
						rng := tensor.NewRNG(uint64(shape[0]*131 + shape[2]))
						n, in, out := shape[0], shape[1], shape[2]
						xd := tensor.RandN(rng, 1, n, in).ReLU() // about half exact zeros
						seed := tensor.RandN(rng, 1, n, out)
						run := func(apply func(l *Linear, x *Value) *Value) (y *tensor.Tensor, l *Linear, x *Value) {
							l = NewLinear(in, out, bias, tensor.NewRNG(7))
							if bias {
								l.B.Data.CopyFrom(tensor.RandN(tensor.NewRNG(8), 1, 1, out))
							}
							x = NewValue(xd.Clone(), xGrad)
							node := apply(l, x)
							y = node.Data.Clone()
							node.BackwardWith(seed)
							return y, l, x
						}
						wantY, wantL, wantX := run(func(l *Linear, x *Value) *Value { return unfusedLinear(l, x, relu) })
						gotY, gotL, gotX := run(func(l *Linear, x *Value) *Value { return l.Apply(x, relu) })
						sameBits(t, "forward", wantY, gotY)
						sameBits(t, "dW", wantL.W.Grad, gotL.W.Grad)
						if bias {
							sameBits(t, "db", wantL.B.Grad, gotL.B.Grad)
						}
						sameBits(t, "dX", wantX.Grad, gotX.Grad)
					}
				}
			}
		}
	}
}

// TestFusedLinearClosedGateKeepsNonFinite: the backward mask is a multiply,
// as in the unfused Mul by the ReLU mask, so a non-finite upstream gradient
// under a closed gate stays NaN in both rather than being silently zeroed in
// one of them.
func TestFusedLinearClosedGateKeepsNonFinite(t *testing.T) {
	x := tensor.FromSlice([]float32{1, -1}, 2, 1)
	seed := tensor.FromSlice([]float32{float32(math.Inf(1)), float32(math.Inf(1))}, 2, 1)
	grads := func(apply func(l *Linear, x *Value) *Value) *tensor.Tensor {
		l := NewLinear(1, 1, false, tensor.NewRNG(1))
		l.W.Data.Data()[0] = 1
		apply(l, Constant(x)).BackwardWith(seed)
		return l.W.Grad
	}
	want := grads(func(l *Linear, x *Value) *Value { return unfusedLinear(l, x, true) })
	got := grads(func(l *Linear, x *Value) *Value { return l.Apply(x, true) })
	if w, g := want.Data()[0], got.Data()[0]; (w == w) != (g == g) || (w == w && w != g) {
		t.Fatalf("closed-gate non-finite gradient: fused %v, unfused %v", g, w)
	}
}

// bytesAllocated reports the heap bytes fn allocates.
func bytesAllocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestNoGradientForConstantInput: when x does not require a gradient, the
// backward pass must not form dX = dOut @ Wᵀ at all — x.Grad stays nil and no
// [m, k] buffer is drawn. Pooling is switched off so that every buffer a
// kernel draws is a fresh allocation the byte counter sees.
func TestNoGradientForConstantInput(t *testing.T) {
	tensor.SetBufferPooling(false)
	defer tensor.SetBufferPooling(true)
	const m, k, n = 4096, 256, 2
	dX := uint64(m * k * 4)
	rng := tensor.NewRNG(3)
	xd := tensor.RandN(rng, 1, m, k)
	seed := tensor.RandN(rng, 1, m, n)
	l := NewLinear(k, n, true, rng)
	for name, build := range map[string]func(x *Value) *Value{
		"Linear.Apply": func(x *Value) *Value { return l.Apply(x, true) },
		"MatMul":       func(x *Value) *Value { return MatMul(x, l.W) },
	} {
		for _, requires := range []bool{false, true} {
			x := NewValue(xd, requires)
			out := build(x)
			got := bytesAllocated(func() { out.BackwardWith(seed) })
			if requires {
				if x.Grad == nil || got < dX {
					t.Fatalf("%s: fixture broken: a leaf that requires grad got %v after %d bytes", name, x.Grad, got)
				}
				continue
			}
			if x.Grad != nil {
				t.Fatalf("%s: constant input accumulated a gradient", name)
			}
			if got >= dX/2 {
				t.Fatalf("%s: backward allocated %d bytes with a constant input; dX alone is %d — it was computed and thrown away", name, got, dX)
			}
		}
	}
}

// TestGuardedBackwardSkipsUnreadParents covers the other multi-parent
// operations: the parent that does not require a gradient gets none, the one
// that does gets exactly what it got before.
func TestGuardedBackwardSkipsUnreadParents(t *testing.T) {
	rng := tensor.NewRNG(4)
	a, b := tensor.RandN(rng, 1, 6, 3), tensor.RandN(rng, 1, 6, 3)
	col := tensor.RandN(rng, 1, 6, 1)
	seed := tensor.RandN(rng, 1, 6, 3)
	ops := map[string]func(x, y *Value) *Value{
		"Mul":    Mul,
		"Sub":    Sub,
		"Add":    Add,
		"Concat": func(x, y *Value) *Value { return Concat(x, y) },
	}
	for name, op := range ops {
		s := seed
		if name == "Concat" {
			s = tensor.Concat(seed, seed)
		}
		full := func() (*Value, *Value) {
			x, y := Param(a.Clone()), Param(b.Clone())
			op(x, y).BackwardWith(s)
			return x, y
		}
		wantX, wantY := full()
		x, y := Param(a.Clone()), Constant(b.Clone())
		op(x, y).BackwardWith(s)
		sameBits(t, name+" dX", wantX.Grad, x.Grad)
		if y.Grad != nil {
			t.Fatalf("%s: constant right parent accumulated a gradient", name)
		}
		x, y = Constant(a.Clone()), Param(b.Clone())
		op(x, y).BackwardWith(s)
		sameBits(t, name+" dY", wantY.Grad, y.Grad)
		if x.Grad != nil {
			t.Fatalf("%s: constant left parent accumulated a gradient", name)
		}
	}
	// MulBroadcast: [n,1] column times [n,d] features.
	c, f := Param(col.Clone()), Param(a.Clone())
	MulBroadcast(c, f).BackwardWith(seed)
	c2, f2 := Param(col.Clone()), Constant(a.Clone())
	MulBroadcast(c2, f2).BackwardWith(seed)
	sameBits(t, "MulBroadcast dCol", c.Grad, c2.Grad)
	c3, f3 := Constant(col.Clone()), Param(a.Clone())
	MulBroadcast(c3, f3).BackwardWith(seed)
	sameBits(t, "MulBroadcast dFeats", f.Grad, f3.Grad)
	if f2.Grad != nil || c3.Grad != nil {
		t.Fatal("MulBroadcast: constant parent accumulated a gradient")
	}
}

// TestReleaseGraph: interior forward buffers (and the loss's scratch) go back
// to the pool and are poisoned; leaves, the root's own value and leaf
// gradients survive; a Reshape view does not return its parent's buffer a
// second time; an unreleased graph (inference) is untouched by a neighbour's
// release.
func TestReleaseGraph(t *testing.T) {
	rng := tensor.NewRNG(5)
	xd := tensor.RandN(rng, 1, 8, 4)
	l1, l2 := NewLinear(4, 6, true, rng), NewLinear(3, 2, true, rng)
	labels := make([]int32, 16)

	build := func() (loss *Value, interior []*Value) {
		x := Constant(xd)
		h := l1.Apply(x, true)       // [8,6]
		r := Reshape(h, 16, 3)       // view of h
		logits := l2.Apply(r, false) // [16,2]
		return CrossEntropy(logits, labels, nil), []*Value{h, r, logits}
	}
	infer, inferNodes := build() // never released
	loss, nodes := build()
	loss.Backward()
	wantLoss := loss.Data.At(0, 0)
	wantGrad := l1.W.Grad.Clone()
	ReleaseGraph(loss)

	if nodes[0].Data.Data() != nil || nodes[2].Data.Data() != nil {
		t.Fatal("released interior nodes must be poisoned")
	}
	if nodes[1].Data.Data() == nil {
		// The view's own header keeps its (now stale) slice: it is never
		// put, and nothing may read it after the step.
		t.Fatal("a Reshape view must not be recycled (its parent's buffer would be put twice)")
	}
	if xd.Data() == nil || l1.W.Data.Data() == nil || l2.B.Data.Data() == nil {
		t.Fatal("leaves must survive ReleaseGraph")
	}
	if loss.Data.At(0, 0) != wantLoss {
		t.Fatal("the root keeps its own value")
	}
	sameBits(t, "leaf gradient", wantGrad, l1.W.Grad)
	for i, n := range inferNodes {
		if n.Data.Data() == nil {
			t.Fatalf("unreleased graph lost interior node %d", i)
		}
	}
	if infer.Data.At(0, 0) != wantLoss {
		t.Fatal("unreleased graph's value changed")
	}

	// The next step reuses the buffers and reproduces the numbers.
	l1.W.ZeroGrad()
	l1.B.ZeroGrad()
	l2.W.ZeroGrad()
	l2.B.ZeroGrad()
	again, _ := build()
	again.Backward()
	if again.Data.At(0, 0) != wantLoss {
		t.Fatalf("second step loss %v, want %v", again.Data.At(0, 0), wantLoss)
	}
	sameBits(t, "second step gradient", wantGrad, l1.W.Grad)
	ReleaseGraph(again)
	ReleaseGraph(again) // idempotent: everything is already poisoned
}
