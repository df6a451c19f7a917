package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update using the current gradients.
	Step()
	// ZeroGrad clears all parameter gradients.
	ZeroGrad()
}

// OptState is a serialisable snapshot of an optimizer's complete state:
// kind, hyperparameters, and (for Adam) the step counter and both moment
// estimates. It is what checkpoint format v2 persists, so a resumed run
// takes bit-identical optimizer steps instead of silently restarting the
// moments from zero.
type OptState struct {
	// Kind discriminates the optimizer ("sgd" or "adam").
	Kind string
	// LR and WeightDecay are common to both kinds.
	LR          float32
	WeightDecay float32
	// Beta1, Beta2, Eps and Step are Adam-only (zero for SGD).
	Beta1 float32
	Beta2 float32
	Eps   float32
	Step  int64
	// M and V are Adam's first and second moment estimates, parallel to
	// the parameter list (nil for SGD).
	M []*tensor.Tensor
	V []*tensor.Tensor
}

// StatefulOptimizer is an Optimizer whose complete state can be captured
// and restored — the contract checkpoint format v2 builds on. Both built-in
// optimizers implement it (SGD trivially: hyperparameters only).
type StatefulOptimizer interface {
	Optimizer
	// StateSave snapshots the optimizer. The returned tensors alias the
	// optimizer's own buffers; serialise or clone before mutating.
	StateSave() *OptState
	// StateLoad restores a snapshot. Kind or shape disagreements surface
	// as a typed *MismatchError; on error the optimizer is unchanged.
	StateLoad(*OptState) error
}

// SGD is plain stochastic gradient descent with optional L2 weight decay. It
// is a test reference: every trainer builds Adam, and the optimizer,
// checkpoint and resume tests run SGD as a second, stateless optimizer kind.
type SGD struct {
	Params      []*Value
	LR          float32
	WeightDecay float32
}

// NewSGD returns an SGD optimizer over params.
func NewSGD(params []*Value, lr float32) *SGD {
	return &SGD{Params: params, LR: lr}
}

// Step applies p -= lr * (grad + wd*p). The decay term is folded into the
// update without writing it back into p.Grad: gradients stay exactly what
// backward produced, so a second Step (or any post-step gradient inspection)
// never sees a decayed gradient.
func (o *SGD) Step() {
	for _, p := range o.Params {
		if p.Grad == nil {
			continue
		}
		if o.WeightDecay != 0 {
			pd, gd := p.Data.Data(), p.Grad.Data()
			for j := range pd {
				pd[j] -= o.LR * (gd[j] + o.WeightDecay*pd[j])
			}
			continue
		}
		p.Data.AddScaledInPlace(p.Grad, -o.LR)
	}
}

// ZeroGrad clears all gradients.
func (o *SGD) ZeroGrad() {
	for _, p := range o.Params {
		p.ZeroGrad()
	}
}

// StateSave snapshots the SGD hyperparameters (SGD keeps no per-step
// state beyond the parameters themselves).
func (o *SGD) StateSave() *OptState {
	return &OptState{Kind: "sgd", LR: o.LR, WeightDecay: o.WeightDecay}
}

// StateLoad restores hyperparameters from a snapshot of the same kind.
func (o *SGD) StateLoad(st *OptState) error {
	if st.Kind != "sgd" {
		return &MismatchError{What: "optimizer kind", Want: "sgd", Got: st.Kind}
	}
	o.LR = st.LR
	o.WeightDecay = st.WeightDecay
	return nil
}

// Adam implements the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	Params      []*Value
	LR          float32
	Beta1       float32
	Beta2       float32
	Eps         float32
	WeightDecay float32

	t int
	m []*tensor.Tensor
	v []*tensor.Tensor
}

// NewAdam returns an Adam optimizer with the usual defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(params []*Value, lr float32) *Adam {
	a := &Adam{Params: params, LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	a.m = make([]*tensor.Tensor, len(params))
	a.v = make([]*tensor.Tensor, len(params))
	for i, p := range params {
		a.m[i] = tensor.New(p.Data.Shape()...)
		a.v[i] = tensor.New(p.Data.Shape()...)
	}
	return a
}

// Step applies one Adam update.
func (o *Adam) Step() {
	o.t++
	bc1 := 1 - float32(math.Pow(float64(o.Beta1), float64(o.t)))
	bc2 := 1 - float32(math.Pow(float64(o.Beta2), float64(o.t)))
	for i, p := range o.Params {
		if p.Grad == nil {
			continue
		}
		g := p.Grad.Data()
		md, vd, pd := o.m[i].Data(), o.v[i].Data(), p.Data.Data()
		// Weight decay rides the update as a local term; p.Grad is never
		// mutated, so repeated Steps and post-step inspection see the raw
		// backward gradients.
		for j := range g {
			gj := g[j]
			if o.WeightDecay != 0 {
				gj += o.WeightDecay * pd[j]
			}
			md[j] = o.Beta1*md[j] + (1-o.Beta1)*gj
			vd[j] = o.Beta2*vd[j] + (1-o.Beta2)*gj*gj
			mhat := md[j] / bc1
			vhat := vd[j] / bc2
			pd[j] -= o.LR * mhat / (float32(math.Sqrt(float64(vhat))) + o.Eps)
		}
	}
}

// ZeroGrad clears all gradients.
func (o *Adam) ZeroGrad() {
	for _, p := range o.Params {
		p.ZeroGrad()
	}
}

// StateSave snapshots the full Adam state: hyperparameters, the bias-
// correction step counter t, and both moment estimates. The tensors alias
// the optimizer's live buffers.
func (o *Adam) StateSave() *OptState {
	return &OptState{
		Kind:        "adam",
		LR:          o.LR,
		WeightDecay: o.WeightDecay,
		Beta1:       o.Beta1,
		Beta2:       o.Beta2,
		Eps:         o.Eps,
		Step:        int64(o.t),
		M:           o.m,
		V:           o.v,
	}
}

// StateLoad restores a snapshot taken with StateSave. The moment tensors
// must match the optimizer's parameters in count and shape; a kind or shape
// disagreement is a typed *MismatchError and leaves the optimizer untouched.
func (o *Adam) StateLoad(st *OptState) error {
	if st.Kind != "adam" {
		return &MismatchError{What: "optimizer kind", Want: "adam", Got: st.Kind}
	}
	if len(st.M) != len(o.Params) || len(st.V) != len(o.Params) {
		return &MismatchError{What: "adam moment count",
			Want: fmt.Sprintf("%d", len(o.Params)),
			Got:  fmt.Sprintf("m=%d v=%d", len(st.M), len(st.V))}
	}
	for i, p := range o.Params {
		want := p.Data.Shape()
		for _, moment := range []*tensor.Tensor{st.M[i], st.V[i]} {
			if !shapeEqual(moment.Shape(), want) {
				return &MismatchError{What: fmt.Sprintf("adam moment %d shape", i),
					Want: fmt.Sprintf("%v", want), Got: fmt.Sprintf("%v", moment.Shape())}
			}
		}
	}
	o.LR = st.LR
	o.WeightDecay = st.WeightDecay
	o.Beta1 = st.Beta1
	o.Beta2 = st.Beta2
	o.Eps = st.Eps
	o.t = int(st.Step)
	for i := range o.Params {
		copy(o.m[i].Data(), st.M[i].Data())
		copy(o.v[i].Data(), st.V[i].Data())
	}
	return nil
}

func shapeEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var (
	_ StatefulOptimizer = (*SGD)(nil)
	_ StatefulOptimizer = (*Adam)(nil)
)
