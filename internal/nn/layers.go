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
// NaN exactly as in the unfused Mul). Open gates multiply by 1, which leaves
// the bits as they were (a NaN stays a NaN; no path promises its payload,
// tensor/simd.go): a branch on the gate mispredicts on half the elements of a
// ReLU layer and cost more than the multiplies. Rows are independent, so the
// mask is split across workers by rows. With db non-nil, the rows of the
// masked g are then added into db top to bottom, the order SumRows uses. That
// sum is split by column blocks, never by rows: each worker adds every row, in
// order, into its own columns of db, where a row split would reassociate it.
func maskAndColumnSum(g, y *tensor.Tensor, relu bool, db *tensor.Tensor) {
	rows, c := g.Rows(), g.Cols()
	gd, yd := g.Data(), y.Data()
	if relu {
		tensor.ParallelForGrain(rows, tensor.GrainForCost(c), func(s, e int) {
			for i, v := range yd[s*c : e*c] {
				gd[s*c+i] *= reluGate(v)
			}
		})
	}
	if db == nil {
		return
	}
	dd := db.Data()
	blocks := (c + columnBlock - 1) / columnBlock
	tensor.ParallelForGrain(blocks, tensor.GrainForCost(rows*columnBlock), func(bs, be int) {
		j0, j1 := bs*columnBlock, min(be*columnBlock, c)
		for r := 0; r < rows; r++ {
			tensor.AddUnrolled(dd[j0:j1], gd[r*c+j0:r*c+j1])
		}
	})
}

// reluGate is 1 where v > 0 and 0 elsewhere (NaN included), without a
// branch: v's bits minus one fall below +Inf's exactly when v is in (0, +Inf].
func reluGate(v float32) float32 {
	open := uint32((uint64(math.Float32bits(v)-1) - 0x7f800000) >> 63)
	return math.Float32frombits(open * 0x3f800000)
}

// columnBlock is the width, in columns, of the blocks a column-split sum hands
// to workers: one 8-lane vector, so only the last block ends in a tail.
const columnBlock = 8

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
