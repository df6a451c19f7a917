package nn

import (
	"bytes"
	"math"
	"os"
	"testing"

	"repro/internal/tensor"
)

// numericGrad estimates dLoss/dParam by central differences, where loss is
// recomputed from scratch by fn after perturbing param's data.
func numericGrad(t *testing.T, param *tensor.Tensor, fn func() float32) *tensor.Tensor {
	t.Helper()
	const eps = 1e-2
	g := tensor.New(param.Shape()...)
	pd, gd := param.Data(), g.Data()
	for i := range pd {
		orig := pd[i]
		pd[i] = orig + eps
		up := fn()
		pd[i] = orig - eps
		down := fn()
		pd[i] = orig
		gd[i] = (up - down) / (2 * eps)
	}
	return g
}

func checkGradsClose(t *testing.T, name string, analytic, numeric *tensor.Tensor, tol float32) {
	t.Helper()
	if analytic == nil {
		t.Fatalf("%s: analytic grad is nil", name)
	}
	ad, nd := analytic.Data(), numeric.Data()
	for i := range ad {
		diff := float64(ad[i] - nd[i])
		scale := 1 + math.Abs(float64(nd[i]))
		if math.Abs(diff)/scale > float64(tol) {
			t.Fatalf("%s: grad[%d] analytic=%v numeric=%v", name, i, ad[i], nd[i])
		}
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := tensor.NewRNG(1)
	lin := NewLinear(3, 2, true, rng)
	x := tensor.RandN(rng, 1, 4, 3)
	labels := []int32{0, 1, 1, 0}

	loss := func() float32 {
		out := lin.Forward(Constant(x))
		return CrossEntropy(out, labels, nil).Data.At(0, 0)
	}

	out := lin.Forward(Constant(x))
	l := CrossEntropy(out, labels, nil)
	l.Backward()

	checkGradsClose(t, "W", lin.W.Grad, numericGrad(t, lin.W.Data, loss), 2e-2)
	checkGradsClose(t, "B", lin.B.Grad, numericGrad(t, lin.B.Data, loss), 2e-2)
}

func TestReLUGradCheck(t *testing.T) {
	rng := tensor.NewRNG(2)
	w := Param(tensor.RandN(rng, 1, 3, 2))
	x := tensor.RandN(rng, 1, 5, 3)
	labels := []int32{0, 1, 0, 1, 1}
	loss := func() float32 {
		return CrossEntropy(ReLU(MatMul(Constant(x), w)), labels, nil).Data.At(0, 0)
	}
	l := CrossEntropy(ReLU(MatMul(Constant(x), w)), labels, nil)
	l.Backward()
	checkGradsClose(t, "W", w.Grad, numericGrad(t, w.Data, loss), 2e-2)
}

func TestScatterAddGradCheck(t *testing.T) {
	rng := tensor.NewRNG(3)
	w := Param(tensor.RandN(rng, 1, 6, 2))
	idx := []int32{0, 1, 0, 2, 1, 0}
	labels := []int32{0, 1, 1}
	loss := func() float32 {
		return CrossEntropy(ScatterAdd(w, idx, 3), labels, nil).Data.At(0, 0)
	}
	l := CrossEntropy(ScatterAdd(w, idx, 3), labels, nil)
	l.Backward()
	checkGradsClose(t, "scatter_add", w.Grad, numericGrad(t, w.Data, loss), 2e-2)
}

func TestScatterMeanGradCheck(t *testing.T) {
	rng := tensor.NewRNG(4)
	w := Param(tensor.RandN(rng, 1, 5, 2))
	idx := []int32{0, 0, 1, 1, 1}
	labels := []int32{1, 0}
	loss := func() float32 {
		return CrossEntropy(ScatterMean(w, idx, 2), labels, nil).Data.At(0, 0)
	}
	l := CrossEntropy(ScatterMean(w, idx, 2), labels, nil)
	l.Backward()
	checkGradsClose(t, "scatter_mean", w.Grad, numericGrad(t, w.Data, loss), 2e-2)
}

func TestScatterMaxGradRouting(t *testing.T) {
	// Gradient must flow only to the argmax row per output element.
	w := Param(tensor.FromSlice([]float32{1, 5, 3, 2}, 2, 2))
	out := ScatterMax(w, []int32{0, 0}, 1)
	out.BackwardWith(tensor.Ones(1, 2))
	// col 0 max is row 1 (3>1); col 1 max is row 0 (5>2).
	want := tensor.FromSlice([]float32{0, 1, 1, 0}, 2, 2)
	if !w.Grad.ApproxEqual(want, 1e-6) {
		t.Fatalf("ScatterMax grad = %v, want %v", w.Grad, want)
	}
}

func TestScatterSoftmaxGradCheck(t *testing.T) {
	rng := tensor.NewRNG(5)
	w := Param(tensor.RandN(rng, 1, 4, 2))
	idx := []int32{0, 0, 1, 1}
	labels := []int32{0, 1, 1, 0}
	loss := func() float32 {
		return CrossEntropy(ScatterSoftmax(w, idx, 2), labels, nil).Data.At(0, 0)
	}
	l := CrossEntropy(ScatterSoftmax(w, idx, 2), labels, nil)
	l.Backward()
	checkGradsClose(t, "scatter_softmax", w.Grad, numericGrad(t, w.Data, loss), 3e-2)
}

func TestGatherGradCheck(t *testing.T) {
	rng := tensor.NewRNG(6)
	w := Param(tensor.RandN(rng, 1, 3, 2))
	idx := []int32{2, 0, 2, 1}
	labels := []int32{0, 1, 0, 1}
	loss := func() float32 {
		return CrossEntropy(Gather(w, idx), labels, nil).Data.At(0, 0)
	}
	l := CrossEntropy(Gather(w, idx), labels, nil)
	l.Backward()
	checkGradsClose(t, "gather", w.Grad, numericGrad(t, w.Data, loss), 2e-2)
}

func TestReduceMiddleGradCheck(t *testing.T) {
	rng := tensor.NewRNG(7)
	w := Param(tensor.RandN(rng, 1, 2, 3, 2))
	labels := []int32{0, 1}
	for _, op := range []tensor.ReduceOp{tensor.ReduceSum, tensor.ReduceMean} {
		loss := func() float32 {
			return CrossEntropy(ReduceMiddle(w, op), labels, nil).Data.At(0, 0)
		}
		w.Grad = nil
		l := CrossEntropy(ReduceMiddle(w, op), labels, nil)
		l.Backward()
		checkGradsClose(t, "reduce_middle_"+op.String(), w.Grad, numericGrad(t, w.Data, loss), 2e-2)
	}
}

func TestConcatGradCheck(t *testing.T) {
	rng := tensor.NewRNG(8)
	a := Param(tensor.RandN(rng, 1, 3, 2))
	b := Param(tensor.RandN(rng, 1, 3, 1))
	labels := []int32{0, 2, 1}
	loss := func() float32 {
		return CrossEntropy(Concat(a, b), labels, nil).Data.At(0, 0)
	}
	l := CrossEntropy(Concat(a, b), labels, nil)
	l.Backward()
	checkGradsClose(t, "concat_a", a.Grad, numericGrad(t, a.Data, loss), 2e-2)
	checkGradsClose(t, "concat_b", b.Grad, numericGrad(t, b.Data, loss), 2e-2)
}

func TestCrossEntropyMask(t *testing.T) {
	logits := Constant(tensor.FromSlice([]float32{10, 0, 0, 10}, 2, 2))
	full := CrossEntropy(logits, []int32{0, 0}, nil).Data.At(0, 0)
	masked := CrossEntropy(logits, []int32{0, 0}, []bool{true, false}).Data.At(0, 0)
	if masked >= full {
		t.Fatalf("masking the wrong row should lower loss: full=%v masked=%v", full, masked)
	}
	if masked > 1e-3 {
		t.Fatalf("correct confident prediction should have near-zero loss: %v", masked)
	}
}

func TestGradAccumulationAcrossReuse(t *testing.T) {
	// A node used twice must receive the sum of both paths' gradients:
	// y = x + x, dy/dx = 2.
	x := Param(tensor.Ones(1, 1))
	y := Add(x, x)
	y.Backward()
	if x.Grad.At(0, 0) != 2 {
		t.Fatalf("grad of reused node = %v, want 2", x.Grad.At(0, 0))
	}
}

func TestConstantGetsNoGrad(t *testing.T) {
	c := Constant(tensor.Ones(1, 1))
	x := Param(tensor.Ones(1, 1))
	y := Mul(c, x)
	y.Backward()
	if c.Grad != nil {
		t.Fatal("Constant must not accumulate grad")
	}
	if x.Grad == nil || x.Grad.At(0, 0) != 1 {
		t.Fatalf("param grad = %v", x.Grad)
	}
}

func TestSGDStepReducesLoss(t *testing.T) {
	rng := tensor.NewRNG(9)
	lin := NewLinear(4, 3, true, rng)
	x := tensor.RandN(rng, 1, 16, 4)
	labels := make([]int32, 16)
	for i := range labels {
		labels[i] = int32(i % 3)
	}
	opt := NewSGD(lin.Parameters(), 0.5)
	var first, last float32
	for epoch := 0; epoch < 30; epoch++ {
		opt.ZeroGrad()
		loss := CrossEntropy(lin.Forward(Constant(x)), labels, nil)
		if epoch == 0 {
			first = loss.Data.At(0, 0)
		}
		last = loss.Data.At(0, 0)
		loss.Backward()
		opt.Step()
	}
	if last >= first {
		t.Fatalf("SGD did not reduce loss: first=%v last=%v", first, last)
	}
}

func TestAdamStepReducesLoss(t *testing.T) {
	rng := tensor.NewRNG(10)
	lin := NewLinear(4, 2, true, rng)
	x := tensor.RandN(rng, 1, 8, 4)
	labels := []int32{0, 1, 0, 1, 0, 1, 0, 1}
	opt := NewAdam(lin.Parameters(), 0.05)
	var first, last float32
	for epoch := 0; epoch < 50; epoch++ {
		opt.ZeroGrad()
		loss := CrossEntropy(lin.Forward(Constant(x)), labels, nil)
		if epoch == 0 {
			first = loss.Data.At(0, 0)
		}
		last = loss.Data.At(0, 0)
		loss.Backward()
		opt.Step()
	}
	if last >= first*0.9 {
		t.Fatalf("Adam did not reduce loss enough: first=%v last=%v", first, last)
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		2, 1, // argmax 0
		0, 3, // argmax 1
		5, 4, // argmax 0
	}, 3, 2)
	if got := Accuracy(logits, []int32{0, 1, 1}, nil); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("Accuracy = %v", got)
	}
	if got := Accuracy(logits, []int32{0, 1, 1}, []bool{true, true, false}); got != 1 {
		t.Fatalf("masked Accuracy = %v", got)
	}
}

func TestDropout(t *testing.T) {
	rng := tensor.NewRNG(11)
	x := Param(tensor.Ones(1, 1000))
	// Eval mode: identity.
	if Dropout(x, 0.5, false, rng) != x {
		t.Fatal("eval-mode dropout must be identity")
	}
	// Train mode: roughly half zeroed, survivors scaled by 2.
	y := Dropout(x, 0.5, true, rng)
	zeros, twos := 0, 0
	for _, v := range y.Data.Data() {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout value %v", v)
		}
	}
	if zeros < 350 || zeros > 650 {
		t.Fatalf("dropout rate off: %d zeros of 1000", zeros)
	}
	// Gradient flows only through survivors.
	MeanAll(y).Backward()
	for i, v := range y.Data.Data() {
		g := x.Grad.Data()[i]
		if v == 0 && g != 0 {
			t.Fatal("gradient leaked through dropped element")
		}
		if v == 2 && g == 0 {
			t.Fatal("gradient missing for surviving element")
		}
	}
	_ = twos
}

func TestTanhGradCheck(t *testing.T) {
	rng := tensor.NewRNG(12)
	w := Param(tensor.RandN(rng, 1, 3, 2))
	labels := []int32{0, 1, 0}
	loss := func() float32 {
		return CrossEntropy(Tanh(w), labels, nil).Data.At(0, 0)
	}
	l := CrossEntropy(Tanh(w), labels, nil)
	l.Backward()
	checkGradsClose(t, "tanh", w.Grad, numericGrad(t, w.Data, loss), 2e-2)
}

func TestDeepGraphBackwardNoStackOverflow(t *testing.T) {
	x := Param(tensor.Ones(1, 1))
	v := NewValue(x.Data, true)
	v = x
	for i := 0; i < 20000; i++ {
		v = Scale(v, 1.0)
	}
	MeanAll(v).Backward()
	if x.Grad == nil || x.Grad.At(0, 0) != 1 {
		t.Fatalf("deep chain grad = %v", x.Grad)
	}
}

func TestNumParams(t *testing.T) {
	rng := tensor.NewRNG(13)
	l1 := NewLinear(3, 4, true, rng)
	l2 := NewLinear(4, 2, false, rng)
	params := CollectParams(l1, l2)
	if got := NumParams(params); got != 3*4+4+4*2 {
		t.Fatalf("NumParams = %d", got)
	}
}

func TestMulBroadcastGradCheck(t *testing.T) {
	rng := tensor.NewRNG(20)
	col := Param(tensor.RandN(rng, 1, 4, 1))
	feats := Param(tensor.RandN(rng, 1, 4, 3))
	labels := []int32{0, 1, 2, 0}
	loss := func() float32 {
		return CrossEntropy(MulBroadcast(col, feats), labels, nil).Data.At(0, 0)
	}
	l := CrossEntropy(MulBroadcast(col, feats), labels, nil)
	l.Backward()
	checkGradsClose(t, "mulbroadcast_col", col.Grad, numericGrad(t, col.Data, loss), 2e-2)
	checkGradsClose(t, "mulbroadcast_feats", feats.Grad, numericGrad(t, feats.Data, loss), 2e-2)
}

func TestMulBroadcastShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MulBroadcast(Param(tensor.Ones(3, 2)), Param(tensor.Ones(3, 4)))
}

func TestSpMMGradCheck(t *testing.T) {
	rng := tensor.NewRNG(21)
	coo := tensor.NewCOO(3, 4)
	coo.Append(0, 1, 2)
	coo.Append(1, 0, -1)
	coo.Append(2, 3, 0.5)
	coo.Append(0, 2, 1)
	a := coo.ToCSR()
	at := a.Transpose()
	x := Param(tensor.RandN(rng, 1, 4, 2))
	labels := []int32{0, 1, 1}
	loss := func() float32 {
		return CrossEntropy(SpMM(a, at, x), labels, nil).Data.At(0, 0)
	}
	l := CrossEntropy(SpMM(a, at, x), labels, nil)
	l.Backward()
	checkGradsClose(t, "spmm", x.Grad, numericGrad(t, x.Data, loss), 2e-2)
}

func TestSigmoidGradCheck(t *testing.T) {
	rng := tensor.NewRNG(22)
	w := Param(tensor.RandN(rng, 1, 3, 2))
	labels := []int32{0, 1, 0}
	loss := func() float32 {
		return CrossEntropy(Sigmoid(w), labels, nil).Data.At(0, 0)
	}
	l := CrossEntropy(Sigmoid(w), labels, nil)
	l.Backward()
	checkGradsClose(t, "sigmoid", w.Grad, numericGrad(t, w.Data, loss), 2e-2)
}

// writeV1File writes a weights-only v1 checkpoint, the format LoadCheckpoint
// must keep reading.
func writeV1File(t *testing.T, path string, params []*Value) {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveParams(&buf, params); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(23)
	l1 := NewLinear(4, 3, true, rng)
	l2 := NewLinear(3, 2, false, rng)
	params := CollectParams(l1, l2)
	path := t.TempDir() + "/model.fgck"
	writeV1File(t, path, params)
	// Perturb, then restore.
	saved := make([]*Value, len(params))
	for i, p := range params {
		saved[i] = Param(p.Data.Clone())
		p.Data.Fill(0)
	}
	if err := LoadCheckpoint(path, params); err != nil {
		t.Fatal(err)
	}
	if !ParamsEqual(params, saved) {
		t.Fatal("checkpoint round trip lost data")
	}
}

func TestCheckpointShapeMismatch(t *testing.T) {
	rng := tensor.NewRNG(24)
	a := []*Value{Param(tensor.RandN(rng, 1, 2, 2))}
	path := t.TempDir() + "/m.fgck"
	writeV1File(t, path, a)
	wrongCount := []*Value{Param(tensor.New(2, 2)), Param(tensor.New(1, 1))}
	if err := LoadCheckpoint(path, wrongCount); err == nil {
		t.Fatal("parameter count mismatch must error")
	}
	wrongShape := []*Value{Param(tensor.New(3, 2))}
	if err := LoadCheckpoint(path, wrongShape); err == nil {
		t.Fatal("shape mismatch must error")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	params := []*Value{Param(tensor.New(1, 1))}
	if err := LoadParams(bytes.NewReader([]byte("nope")), params); err == nil {
		t.Fatal("bad magic must error")
	}
}

func TestScatterMinGradRouting(t *testing.T) {
	w := Param(tensor.FromSlice([]float32{1, 5, 3, 2}, 2, 2))
	out := ScatterMin(w, []int32{0, 0}, 1)
	out.BackwardWith(tensor.Ones(1, 2))
	// col 0 min is row 0 (1<3); col 1 min is row 1 (2<5).
	want := tensor.FromSlice([]float32{1, 0, 0, 1}, 2, 2)
	if !w.Grad.ApproxEqual(want, 1e-6) {
		t.Fatalf("ScatterMin grad = %v, want %v", w.Grad, want)
	}
	if out.Data.At(0, 0) != 1 || out.Data.At(0, 1) != 2 {
		t.Fatalf("ScatterMin values = %v", out.Data)
	}
}

func TestReduceMiddleExtremeGradRouting(t *testing.T) {
	// [1 root, 2 groups, 2 dims]: group maxima are (3, 4) from groups (1, 0),
	// minima (1, 2) from groups (0, 1).
	for _, c := range []struct {
		op       tensor.ReduceOp
		out, dIn []float32
	}{
		{tensor.ReduceMax, []float32{3, 4}, []float32{0, 1, 1, 0}},
		{tensor.ReduceMin, []float32{1, 2}, []float32{1, 0, 0, 1}},
	} {
		w := Param(tensor.FromSlice([]float32{1, 4, 3, 2}, 1, 2, 2))
		out := ReduceMiddle(w, c.op)
		if !out.Data.ApproxEqual(tensor.FromSlice(c.out, 1, 2), 0) {
			t.Fatalf("middle %v = %v", c.op, out.Data)
		}
		out.BackwardWith(tensor.Ones(1, 2))
		if want := tensor.FromSlice(c.dIn, 1, 2, 2); !w.Grad.ApproxEqual(want, 1e-6) {
			t.Fatalf("middle %v grad = %v, want %v", c.op, w.Grad, want)
		}
	}
}
