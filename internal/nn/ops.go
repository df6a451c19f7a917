package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Backward closures with more than one parent compute a parent's gradient
// only when that parent requires one: the check sits at the source, before
// the product is formed, not in accumGrad after it. The layer-1 input
// gradient dX = dOut @ Wᵀ of every model here is the largest tensor of the
// backward pass, and its parent — the input features — is a constant.
// (Single-parent operations need no check: newResult drops their closure
// when the parent does not require grad.)

// MatMul returns a @ b with gradients dA = dOut @ bᵀ and dB = aᵀ @ dOut.
func MatMul(a, b *Value) *Value {
	return newResult(a.Data.MatMul(b.Data), func(out *Value) {
		if a.requiresGrad {
			a.accumGradOwned(out.Grad.MatMulT(b.Data))
		}
		if b.requiresGrad {
			b.accumGradOwned(a.Data.TMatMul(out.Grad))
		}
	}, a, b)
}

// Add returns a + b elementwise; b may be a [1, C] bias row broadcast over
// a's rows, in which case its gradient is the column sum of dOut.
func Add(a, b *Value) *Value {
	return newResult(a.Data.Add(b.Data), func(out *Value) {
		a.accumGrad(out.Grad)
		if b.Data.SameShape(a.Data) {
			b.accumGrad(out.Grad)
		} else if b.requiresGrad {
			b.accumGradOwned(out.Grad.SumRows())
		}
	}, a, b)
}

// Sub returns a - b elementwise (no broadcasting).
func Sub(a, b *Value) *Value {
	return newResult(a.Data.Sub(b.Data), func(out *Value) {
		a.accumGrad(out.Grad)
		if b.requiresGrad {
			b.accumGradOwned(out.Grad.Scale(-1))
		}
	}, a, b)
}

// Mul returns the elementwise product.
func Mul(a, b *Value) *Value {
	return newResult(a.Data.Mul(b.Data), func(out *Value) {
		if a.requiresGrad {
			a.accumGradOwned(out.Grad.Mul(b.Data))
		}
		if b.requiresGrad {
			b.accumGradOwned(out.Grad.Mul(a.Data))
		}
	}, a, b)
}

// Scale returns c*a.
func Scale(a *Value, c float32) *Value {
	return newResult(a.Data.Scale(c), func(out *Value) {
		a.accumGradOwned(out.Grad.Scale(c))
	}, a)
}

// ReLU returns max(a, 0).
func ReLU(a *Value) *Value {
	return newResult(a.Data.ReLU(), func(out *Value) {
		a.accumGradOwned(out.Grad.Mul(a.Data.ReLUMask()))
	}, a)
}

// Tanh returns tanh(a).
func Tanh(a *Value) *Value {
	data := a.Data.Tanh()
	return newResult(data, func(out *Value) {
		g := tensor.NewUninit(data.Shape()...)
		gd, od, dd := g.Data(), out.Grad.Data(), data.Data()
		tensor.ParallelForGrain(len(gd), tensor.GrainForCost(1), func(s, e int) {
			for i := s; i < e; i++ {
				gd[i] = od[i] * (1 - dd[i]*dd[i])
			}
		})
		a.accumGradOwned(g)
	}, a)
}

// Sigmoid returns 1/(1+exp(-a)) with gradient σ·(1-σ).
func Sigmoid(a *Value) *Value {
	data := a.Data.Sigmoid()
	return newResult(data, func(out *Value) {
		g := tensor.NewUninit(data.Shape()...)
		gd, od, dd := g.Data(), out.Grad.Data(), data.Data()
		tensor.ParallelForGrain(len(gd), tensor.GrainForCost(1), func(s, e int) {
			for i := s; i < e; i++ {
				gd[i] = od[i] * dd[i] * (1 - dd[i])
			}
		})
		a.accumGradOwned(g)
	}, a)
}

// Concat concatenates along dimension 1; the backward pass splits dOut back
// into the inputs' column ranges.
func Concat(vs ...*Value) *Value {
	datas := make([]*tensor.Tensor, len(vs))
	widths := make([]int, len(vs))
	for i, v := range vs {
		datas[i] = v.Data
		widths[i] = v.Data.Dim(1)
	}
	return newResult(tensor.Concat(datas...), func(out *Value) {
		off := 0
		for i, v := range vs {
			if v.requiresGrad {
				v.accumGradOwned(out.Grad.SliceCols(off, widths[i]))
			}
			off += widths[i]
		}
	}, vs...)
}

// Reshape returns a view with a new shape; gradients are reshaped back.
func Reshape(a *Value, shape ...int) *Value {
	out := newResult(a.Data.Reshape(shape...), func(out *Value) {
		a.accumGrad(out.Grad.Reshape(a.Data.Shape()...))
	}, a)
	out.view = true
	return out
}

// Gather selects rows of src: out.Row(i) = src.Row(index[i]). Gradients
// scatter-add back to the selected rows.
func Gather(src *Value, index []int32) *Value {
	return newResult(tensor.Gather(src.Data, index), func(out *Value) {
		src.accumGradOwned(tensor.ScatterAdd(out.Grad, index, src.Data.Rows()))
	}, src)
}

// ScatterAdd sums rows of values into numOut groups given by index; the
// gradient of values row i is dOut row index[i].
func ScatterAdd(values *Value, index []int32, numOut int) *Value {
	return newResult(tensor.ScatterAdd(values.Data, index, numOut), func(out *Value) {
		values.accumGradOwned(tensor.Gather(out.Grad, index))
	}, values)
}

// ScatterMean averages rows of values per group; the gradient of values row
// i is dOut row index[i] divided by the group size.
func ScatterMean(values *Value, index []int32, numOut int) *Value {
	counts := tensor.ScatterCounts(index, numOut)
	return newResult(tensor.ScatterMean(values.Data, index, numOut), func(out *Value) {
		g := tensor.Gather(out.Grad, index)
		c := g.Cols()
		gd := g.Data()
		tensor.ParallelForGrain(len(index), tensor.GrainForCost(c), func(s, e int) {
			for i := s; i < e; i++ {
				inv := float32(1) / float32(counts[index[i]])
				tensor.ScaleUnrolled(gd[i*c:(i+1)*c], inv)
			}
		})
		values.accumGradOwned(g)
	}, values)
}

// ScatterMax takes the elementwise max per group; gradients flow only to the
// winning row for each output element.
func ScatterMax(values *Value, index []int32, numOut int) *Value {
	data, argmax := scatterMaxWithArg(values.Data, index, numOut)
	return newResult(data, func(out *Value) {
		g := tensor.NewPooled(values.Data.Shape()...)
		c := g.Cols()
		gd, od := g.Data(), out.Grad.Data()
		// Safe to parallelise over output rows: a source row i competes only
		// in its own group index[i], so for a fixed column j each gd[i*c+j]
		// is written by at most one r.
		tensor.ParallelForGrain(numOut, tensor.GrainForCost(c), func(rs, re int) {
			for r := rs; r < re; r++ {
				for j := 0; j < c; j++ {
					src := argmax[r*c+j]
					if src >= 0 {
						gd[int(src)*c+j] += od[r*c+j]
					}
				}
			}
		})
		values.accumGradOwned(g)
	}, values)
}

// ScatterMin takes the elementwise min per group; gradients flow only to
// the winning row for each output element.
func ScatterMin(values *Value, index []int32, numOut int) *Value {
	data, argmin := scatterExtremeWithArg(values.Data, index, numOut, false)
	return newResult(data, func(out *Value) {
		g := tensor.NewPooled(values.Data.Shape()...)
		c := g.Cols()
		gd, od := g.Data(), out.Grad.Data()
		// Disjoint writes per output row; see ScatterMax.
		tensor.ParallelForGrain(numOut, tensor.GrainForCost(c), func(rs, re int) {
			for r := rs; r < re; r++ {
				for j := 0; j < c; j++ {
					if src := argmin[r*c+j]; src >= 0 {
						gd[int(src)*c+j] += od[r*c+j]
					}
				}
			}
		})
		values.accumGradOwned(g)
	}, values)
}

func scatterMaxWithArg(values *tensor.Tensor, index []int32, numOut int) (*tensor.Tensor, []int32) {
	return scatterExtremeWithArg(values, index, numOut, true)
}

// scatterExtremeWithArg computes the per-group elementwise max/min plus the
// winning row per output element (-1 for empty groups, whose values stay
// zero). The fold follows the builtin max/min semantics (NaN propagates,
// +0 orders above -0) with first occurrence winning ties, matching
// tensor.ScatterMax/Min and the fused engine kernels bitwise. The first
// contribution of each group copies instead of folding, so the dispatch
// inner loop needs no "row still empty" test.
func scatterExtremeWithArg(values *tensor.Tensor, index []int32, numOut int, max bool) (*tensor.Tensor, []int32) {
	c := values.Cols()
	out := tensor.New(numOut, c) // zero-filled: empty groups stay zero
	argmax := make([]int32, numOut*c)
	counts := make([]int32, numOut)
	firstEdge := make([]int32, numOut)
	for i := range firstEdge {
		firstEdge[i] = -1
	}
	for i, dst := range index {
		if dst < 0 || int(dst) >= numOut {
			panic(fmt.Sprintf("nn: scatter index %d out of range [0,%d)", dst, numOut))
		}
		if counts[dst] == 0 {
			firstEdge[dst] = int32(i)
		}
		counts[dst]++
	}
	prefix := make([]int64, numOut+1)
	for d, n := range counts {
		prefix[d+1] = prefix[d] + int64(n)
	}
	foldArg := tensor.MaxArgUnrolled
	if !max {
		foldArg = tensor.MinArgUnrolled
	}
	vd, od := values.Data(), out.Data()
	// Each worker owns a contribution-weighted range of destination rows and
	// scans the whole index, touching only its own rows: disjoint writes,
	// and a hub destination cannot serialise a chunk.
	tensor.ParallelForWeighted(numOut, prefix, c, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			if counts[r] == 0 {
				args := argmax[r*c : (r+1)*c]
				for j := range args {
					args[j] = -1
				}
			}
		}
		for i, dst := range index {
			if int(dst) < lo || int(dst) >= hi {
				continue
			}
			base := int(dst) * c
			dstRow := od[base : base+c]
			args := argmax[base : base+c]
			vrow := vd[i*c : (i+1)*c]
			if int32(i) == firstEdge[dst] {
				copy(dstRow, vrow)
				for j := range args {
					args[j] = int32(i)
				}
			} else {
				foldArg(dstRow, args, vrow, int32(i))
			}
		}
	})
	return out, argmax
}

// ScatterSoftmax normalises rows within index groups column-wise; see
// tensor.ScatterSoftmax. The backward pass applies the softmax Jacobian per
// group and column: dV = S ⊙ (dOut - Σ_group S ⊙ dOut).
func ScatterSoftmax(values *Value, index []int32, numOut int) *Value {
	data := tensor.ScatterSoftmax(values.Data, index, numOut)
	return newResult(data, func(out *Value) {
		c := data.Cols()
		// inner[g][j] = Σ_{i in group g} S[i][j] * dOut[i][j]
		inner := tensor.GetBuf(numOut * c)
		sd, od, id := data.Data(), out.Grad.Data(), inner
		for i, dst := range index {
			base := int(dst) * c
			for j := 0; j < c; j++ {
				id[base+j] += sd[i*c+j] * od[i*c+j]
			}
		}
		g := tensor.NewUninit(values.Data.Shape()...)
		gd := g.Data()
		tensor.ParallelForGrain(len(index), tensor.GrainForCost(c), func(s, e int) {
			for i := s; i < e; i++ {
				base := int(index[i]) * c
				for j := 0; j < c; j++ {
					gd[i*c+j] = sd[i*c+j] * (od[i*c+j] - id[base+j])
				}
			}
		})
		tensor.PutBuf(inner)
		values.accumGradOwned(g)
	}, values)
}

// ReduceMiddle reduces a [N, G, D] value to [N, D]; see
// tensor.Tensor.ReduceMiddle. Max and min route gradients to the winning
// group per element (max is JK-Net's max-pooling combiner).
func ReduceMiddle(a *Value, op tensor.ReduceOp) *Value {
	switch op {
	case tensor.ReduceSum, tensor.ReduceMean:
	case tensor.ReduceMax, tensor.ReduceMin:
		return reduceMiddleExtreme(a, op == tensor.ReduceMax)
	default:
		panic(fmt.Sprintf("nn: unsupported ReduceMiddle op %v", op))
	}
	g := a.Data.Dim(1)
	return newResult(a.Data.ReduceMiddle(op), func(out *Value) {
		n, d := a.Data.Dim(0), a.Data.Dim(2)
		grad := tensor.NewUninit(n, g, d) // every element written below
		scale := float32(1)
		if op == tensor.ReduceMean {
			scale = 1 / float32(g)
		}
		gd, od := grad.Data(), out.Grad.Data()
		tensor.ParallelForGrain(n, tensor.GrainForCost(g*d), func(is, ie int) {
			for i := is; i < ie; i++ {
				for j := 0; j < g; j++ {
					row := gd[(i*g+j)*d : (i*g+j+1)*d]
					copy(row, od[i*d:(i+1)*d])
					tensor.ScaleUnrolled(row, scale) // od·scale, elementwise
				}
			}
		})
		a.accumGradOwned(grad)
	}, a)
}

// MulBroadcast multiplies each row of feats [n, d] by the scalar in the
// corresponding row of col [n, 1]. Gradients flow to both: dCol[i] is the
// dot product of dOut row i with feats row i, and dFeats is dOut scaled by
// col. Used to apply per-instance attention weights across feature columns.
func MulBroadcast(col, feats *Value) *Value {
	if col.Data.Dim(1) != 1 || col.Data.Rows() != feats.Data.Rows() {
		panic(fmt.Sprintf("nn: MulBroadcast col %v vs feats %v", col.Data.Shape(), feats.Data.Shape()))
	}
	n, d := feats.Data.Rows(), feats.Data.Dim(1)
	out := tensor.NewUninit(n, d) // every element written below
	od, cd, fd := out.Data(), col.Data.Data(), feats.Data.Data()
	tensor.ParallelForGrain(n, tensor.GrainForCost(d), func(s, e int) {
		for i := s; i < e; i++ {
			a := cd[i]
			for j := 0; j < d; j++ {
				od[i*d+j] = a * fd[i*d+j]
			}
		}
	})
	return newResult(out, func(outV *Value) {
		var gc, gf *tensor.Tensor
		var gcd, gfd []float32
		if col.requiresGrad {
			gc = tensor.NewUninit(n, 1)
			gcd = gc.Data()
		}
		if feats.requiresGrad {
			gf = tensor.NewUninit(n, d)
			gfd = gf.Data()
		}
		gd := outV.Grad.Data()
		tensor.ParallelForGrain(n, tensor.GrainForCost(d), func(s, e int) {
			for i := s; i < e; i++ {
				g := gd[i*d : (i+1)*d]
				if gcd != nil {
					var dot float32
					for j, f := range fd[i*d : (i+1)*d] {
						dot += g[j] * f
					}
					gcd[i] = dot
				}
				if gfd != nil {
					a := cd[i]
					for j := range g {
						gfd[i*d+j] = g[j] * a
					}
				}
			}
		})
		if gc != nil {
			col.accumGradOwned(gc)
		}
		if gf != nil {
			feats.accumGradOwned(gf)
		}
	}, col, feats)
}

// SpMM computes a @ x for a sparse CSR matrix a and dense x. at must be
// aᵀ (also CSR); the gradient of x is aᵀ @ dOut. The matrix itself is not
// differentiable. This is the sparse-dense matrix multiplication the
// PyTorch GCN baseline builds on (§7.1).
func SpMM(a, at *tensor.CSR, x *Value) *Value {
	return newResult(a.SpMM(x.Data), func(out *Value) {
		x.accumGradOwned(at.SpMM(out.Grad))
	}, x)
}

func reduceMiddleExtreme(a *Value, max bool) *Value {
	n, g, d := a.Data.Dim(0), a.Data.Dim(1), a.Data.Dim(2)
	out := tensor.NewUninit(n, d) // every element written below
	argmax := make([]int32, n*d)
	ad, od := a.Data.Data(), out.Data()
	foldArg := tensor.MaxArgUnrolled
	if !max {
		foldArg = tensor.MinArgUnrolled
	}
	// Copy-first fold with the shared arg-tracking kernels, so the middle
	// reduction's ties, NaNs and signed zeros resolve exactly like the
	// scatter and fused aggregation paths (builtin max/min semantics, first
	// occurrence wins).
	tensor.ParallelForGrain(n, tensor.GrainForCost(g*d), func(is, ie int) {
		for i := is; i < ie; i++ {
			base := i * g * d
			copy(od[i*d:(i+1)*d], ad[base:base+d])
			for j := 1; j < g; j++ {
				foldArg(od[i*d:(i+1)*d], argmax[i*d:(i+1)*d], ad[base+j*d:base+(j+1)*d], int32(j))
			}
		}
	})
	return newResult(out, func(outV *Value) {
		grad := tensor.NewPooled(n, g, d)
		gd, ogd := grad.Data(), outV.Grad.Data()
		tensor.ParallelForGrain(n, tensor.GrainForCost(g*d), func(is, ie int) {
			for i := is; i < ie; i++ {
				for k := 0; k < d; k++ {
					j := int(argmax[i*d+k])
					gd[i*g*d+j*d+k] = ogd[i*d+k]
				}
			}
		})
		a.accumGradOwned(grad)
	}, a)
}

// MeanAll reduces a to its scalar mean, shape [1,1].
func MeanAll(a *Value) *Value {
	data := tensor.FromSlice([]float32{a.Data.Mean()}, 1, 1)
	return newResult(data, func(out *Value) {
		g := tensor.NewUninit(a.Data.Shape()...)
		g.Fill(out.Grad.Data()[0] / float32(a.Data.Len()))
		a.accumGradOwned(g)
	}, a)
}

// Dropout zeroes each element with probability p during training and scales
// survivors by 1/(1-p). With train=false it is the identity.
func Dropout(a *Value, p float32, train bool, rng *tensor.RNG) *Value {
	if !train || p <= 0 {
		return a
	}
	mask := tensor.New(a.Data.Shape()...)
	md := mask.Data()
	keep := 1 - p
	inv := 1 / keep
	for i := range md {
		if rng.Float32() < keep {
			md[i] = inv
		}
	}
	return newResult(a.Data.Mul(mask), func(out *Value) {
		a.accumGradOwned(out.Grad.Mul(mask))
	}, a)
}
