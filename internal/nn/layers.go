package nn

import (
	"math"

	"repro/internal/tensor"
)

// Module is anything holding trainable parameters.
type Module interface {
	Parameters() []*Value
}

// Linear is a fully connected layer: y = x @ W + b.
type Linear struct {
	W *Value // [in, out]
	B *Value // [1, out], nil when bias is disabled
}

// NewLinear returns a Linear layer with Xavier/Glorot-uniform initialised
// weights and zero bias.
func NewLinear(in, out int, bias bool, rng *tensor.RNG) *Linear {
	bound := float32(math.Sqrt(6.0 / float64(in+out)))
	l := &Linear{W: Param(tensor.RandUniform(rng, -bound, bound, in, out))}
	if bias {
		l.B = Param(tensor.New(1, out))
	}
	return l
}

// Forward applies the layer to x of shape [n, in].
func (l *Linear) Forward(x *Value) *Value { return l.Apply(x, false) }

// Apply computes x @ W + b, followed by ReLU when relu is set, as one
// autograd node: one [n, out] forward buffer and one gradient accumulator
// where the MatMul → Add → ReLU chain holds three of each. Values and every
// gradient are bitwise those of the chain. The forward epilogue runs inside
// the product (tensor.MatMulBias); the backward pass masks dOut in place by
// the output's sign (the output is positive exactly where the pre-activation
// was), column-sums the masked rows into db in the same sweep, and forms only
// the products whose target requires a gradient.
func (l *Linear) Apply(x *Value, relu bool) *Value {
	var bias *tensor.Tensor
	parents := []*Value{x, l.W}
	if l.B != nil {
		bias = l.B.Data
		parents = append(parents, l.B)
	}
	return newResult(x.Data.MatMulBias(l.W.Data, bias, relu), func(out *Value) {
		g := out.Grad
		var db *tensor.Tensor
		if l.B != nil && l.B.requiresGrad {
			db = tensor.NewPooled(1, g.Cols())
		}
		if relu || db != nil {
			maskAndColumnSum(g, out.Data, relu, db)
		}
		if db != nil {
			l.B.accumGradOwned(db)
		}
		if x.requiresGrad {
			x.accumGradOwned(g.MatMulT(l.W.Data))
		}
		if l.W.requiresGrad {
			l.W.accumGradOwned(x.Data.TMatMul(g))
		}
	}, parents...)
}

// maskAndColumnSum is the in-place half of Linear's backward pass. With relu
// set, each element of g is multiplied by the ReLU mask of y (1 where y > 0,
// else 0 — a multiply, so a non-finite gradient under a closed gate stays
// NaN exactly as in the unfused Mul). With db non-nil, the rows of the
// masked g are added into db top to bottom, the order SumRows uses.
func maskAndColumnSum(g, y *tensor.Tensor, relu bool, db *tensor.Tensor) {
	c := g.Cols()
	gd, yd := g.Data(), y.Data()
	for r := 0; r < g.Rows(); r++ {
		row := gd[r*c : (r+1)*c]
		if relu {
			for j, v := range yd[r*c : (r+1)*c] {
				if !(v > 0) {
					row[j] *= 0
				}
			}
		}
		if db != nil {
			tensor.AddUnrolled(db.Data(), row)
		}
	}
}

// Parameters returns the trainable parameters.
func (l *Linear) Parameters() []*Value {
	if l.B == nil {
		return []*Value{l.W}
	}
	return []*Value{l.W, l.B}
}

// CollectParams flattens the parameters of several modules.
func CollectParams(mods ...Module) []*Value {
	var out []*Value
	for _, m := range mods {
		out = append(out, m.Parameters()...)
	}
	return out
}

// NumParams counts the scalar parameters across values.
func NumParams(params []*Value) int {
	n := 0
	for _, p := range params {
		n += p.Data.Len()
	}
	return n
}
