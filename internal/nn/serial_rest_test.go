package nn

// The elementwise loops between the products — the loss's softmax and its
// gradient rows, Linear's ReLU mask and bias sum, Add, and a gradient's first
// accumulation — run on the worker pool. These tests hold each of them, bit
// for bit, to a serial loop written out here, at kernel parallelism 1, 2 and
// 3 and at shapes every one of those loops splits into at least three chunks
// at parallelism 3: 6 000 rows of 16 softmax columns and gradient rows (grains
// of 32 and 1 024 rows), 4 096 rows of 40 masked columns (409) and five
// 8-column blocks of them (1), 3 200 x 64 added elements (2^16). The
// benchmarks time the two nn ones at the train_gcn_dense shape. The schema
// level's ReduceMiddle backward (sum, mean) is held the same way: 300 roots
// of 6 groups x 37 columns, grains of 73 roots.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// sameFloats fails unless got holds want's bits, element for element. NaN
// payloads are not part of the contract (tensor/simd.go), so any NaN matches
// any NaN.
func sameFloats(t *testing.T, what string, want, got []float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if w != w && g != g {
			continue
		}
		if math.Float32bits(w) != math.Float32bits(g) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// forParallelism runs fn under kernel parallelism 1, 2 and 3.
func forParallelism(t *testing.T, fn func(t *testing.T)) {
	defer tensor.SetParallelism(0)
	for _, p := range []int{1, 2, 3} {
		tensor.SetParallelism(p)
		t.Run(fmt.Sprintf("p%d", p), fn)
	}
}

// refCrossEntropy is CrossEntropy's loss and logits gradient (seed 1) as one
// serial loop over the included rows.
func refCrossEntropy(logits *tensor.Tensor, labels []int32, mask []bool) (float32, []float32) {
	n, c := logits.Rows(), logits.Cols()
	ld := logits.Data()
	probs := make([]float32, n*c)
	m := 0
	var loss float64
	for r := 0; r < n; r++ {
		if !mask[r] {
			continue
		}
		src, dst := ld[r*c:(r+1)*c], probs[r*c:(r+1)*c]
		maxv := float32(math.Inf(-1))
		for _, v := range src {
			if v > maxv {
				maxv = v
			}
		}
		var sum float32
		for j, v := range src {
			dst[j] = float32(math.Exp(float64(v - maxv)))
			sum += dst[j]
		}
		if sum != 0 {
			inv := 1 / sum
			for j := range dst {
				dst[j] *= inv
			}
		}
		m++
		p := dst[labels[r]]
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(float64(p))
	}
	grad := make([]float32, n*c)
	inv := 1 / float32(m)
	for r := 0; r < n; r++ {
		if !mask[r] {
			continue
		}
		for j := 0; j < c; j++ {
			grad[r*c+j] = probs[r*c+j] * inv
		}
		grad[r*c+int(labels[r])] -= inv
	}
	return float32(loss / float64(m)), grad
}

func TestCrossEntropyMatchesSerialLoop(t *testing.T) {
	const n, c = 6000, 16
	rng := tensor.NewRNG(41)
	logits := tensor.RandN(rng, 4, n, c)
	labels := make([]int32, n)
	mask := make([]bool, n)
	ld := logits.Data()
	for r := range labels {
		labels[r] = int32(rng.Intn(c))
		mask[r] = rng.Float32() < 0.7
		if !mask[r] && r%3 == 0 {
			ld[r*c+r%c] = float32(math.NaN()) // excluded rows never reach the loss
		}
	}
	wantLoss, wantGrad := refCrossEntropy(logits, labels, mask)
	forParallelism(t, func(t *testing.T) {
		x := Param(logits.Clone())
		loss := CrossEntropy(x, labels, mask)
		sameFloats(t, "loss", []float32{wantLoss}, loss.Data.Data())
		loss.Backward()
		sameFloats(t, "dlogits", wantGrad, x.Grad.Data())
		ReleaseGraph(loss)
	})
}

func TestLinearBackwardMatchesSerialLoop(t *testing.T) {
	const n, in, out = 4096, 12, 40
	rng := tensor.NewRNG(42)
	xd := tensor.RandN(rng, 1, n, in)
	seed := tensor.RandN(rng, 1, n, out)
	// Open gates pass -0 and denormals through unchanged; NaN and infinities
	// sit in column 0 only, so they poison one column of dW and db, not all.
	sd := seed.Data()
	for r := 0; r < n; r += 5 {
		sd[r*out+1+r%(out-1)] = []float32{float32(math.Copysign(0, -1)), math.Float32frombits(3), -math.SmallestNonzeroFloat32}[r%3]
		if r%50 == 0 {
			sd[r*out] = []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}[r%3]
		}
	}
	for _, bias := range []bool{false, true} {
		for _, relu := range []bool{false, true} {
			l := NewLinear(in, out, bias, tensor.NewRNG(7))
			if bias {
				l.B.Data.CopyFrom(tensor.RandN(tensor.NewRNG(8), 1, 1, out))
			}
			y := xd.MatMulBias(l.W.Data, biasData(l), relu)
			// The serial rest: mask dOut by y's sign, then column-sum it
			// top to bottom.
			g := seed.Clone()
			gd, yd := g.Data(), y.Data()
			if relu {
				for i, v := range yd {
					if !(v > 0) {
						gd[i] *= 0
					}
				}
			}
			db := make([]float32, out)
			for r := 0; r < n; r++ {
				for j := 0; j < out; j++ {
					db[j] += gd[r*out+j]
				}
			}
			wantDX, wantDW := g.MatMulT(l.W.Data), xd.TMatMul(g)
			t.Run(fmt.Sprintf("bias=%v/relu=%v", bias, relu), func(t *testing.T) {
				forParallelism(t, func(t *testing.T) {
					l.W.Grad = nil
					x := NewValue(xd.Clone(), true)
					if bias {
						l.B.Grad = nil
					}
					node := l.Apply(x, relu)
					sameFloats(t, "forward", y.Data(), node.Data.Data())
					node.BackwardWith(seed)
					sameFloats(t, "dX", wantDX.Data(), x.Grad.Data())
					sameFloats(t, "dW", wantDW.Data(), l.W.Grad.Data())
					if bias {
						sameFloats(t, "db", db, l.B.Grad.Data())
					}
				})
			})
		}
	}
}

// TestReLUGate: the branch-free gate is 1 exactly where v > 0 — over the
// special values and a stride through every float32 bit pattern.
func TestReLUGate(t *testing.T) {
	check := func(v float32) {
		want := float32(0)
		if v > 0 {
			want = 1
		}
		if got := reluGate(v); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("reluGate(%v = %#x) = %v, want %v", v, math.Float32bits(v), got, want)
		}
	}
	for _, b := range []uint32{0, 1, 0x007fffff, 0x00800000, 0x3f800000, 0x7f7fffff, 0x7f800000, 0x7f800001, 0x7fc00000, 0x7fffffff,
		0x80000000, 0x80000001, 0xbf800000, 0xff800000, 0xff800001, 0xffc00000, 0xffffffff} {
		check(math.Float32frombits(b))
	}
	for b := uint64(0); b < 1<<32; b += 65521 {
		check(math.Float32frombits(uint32(b)))
	}
}

func biasData(l *Linear) *tensor.Tensor {
	if l.B == nil {
		return nil
	}
	return l.B.Data
}

func TestAddMatchesSerialLoop(t *testing.T) {
	const n, c = 3200, 64
	rng := tensor.NewRNG(43)
	ad, bd, seed := tensor.RandN(rng, 1, n, c), tensor.RandN(rng, 1, n, c), tensor.RandN(rng, 1, n, c)
	sum := make([]float32, n*c)
	for i := range sum {
		sum[i] = ad.Data()[i] + bd.Data()[i]
	}
	forParallelism(t, func(t *testing.T) {
		a, b := Param(ad.Clone()), Param(bd.Clone())
		y := Add(a, b)
		sameFloats(t, "forward", sum, y.Data.Data())
		y.BackwardWith(seed)
		sameFloats(t, "da", seed.Data(), a.Grad.Data())
		sameFloats(t, "db", seed.Data(), b.Grad.Data())
	})
}

// TestFirstAccumulationIsZeroPlusGradient: a gradient's first accumulation
// leaves exactly what adding it to a zero-filled accumulator leaves: -0
// becomes +0 (so copying the gradient is not the same), and NaN, infinities
// and denormals pass through.
func TestFirstAccumulationIsZeroPlusGradient(t *testing.T) {
	const n, c = 3200, 64
	g := tensor.RandN(tensor.NewRNG(44), 1, n, c)
	gd := g.Data()
	special := []float32{
		float32(math.Copysign(0, -1)), 0, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1), math.Float32frombits(0x807fffff), math.SmallestNonzeroFloat32,
	}
	for i := range gd {
		if i%7 == 0 {
			gd[i] = special[(i/7)%len(special)]
		}
	}
	want := make([]float32, len(gd))
	for i, v := range gd {
		want[i] += v
	}
	forParallelism(t, func(t *testing.T) {
		v := Param(tensor.New(n, c))
		v.accumGrad(g)
		sameFloats(t, "first accumulation", want, v.Grad.Data())
		if math.Signbit(float64(v.Grad.Data()[0])) {
			t.Fatal("-0 survived the first accumulation")
		}
	})
}

// BenchmarkCrossEntropy times the loss forward and backward at the
// train_gcn_dense shape: 6 000 x 16 logits, 70 % of rows in the mask.
// TestReduceMiddleBackwardMatchesSerialLoop: every group row of the input
// gradient is the root's dOut row times the scale (1, or 1/groups for a
// mean), element for element, with −0, NaN, ±Inf and denormals in dOut.
func TestReduceMiddleBackwardMatchesSerialLoop(t *testing.T) {
	const n, g, d = 300, 6, 37
	rng := tensor.NewRNG(45)
	x := tensor.RandN(rng, 1, n, g, d)
	dOut := tensor.RandN(rng, 1, n, d)
	specials := []float32{float32(math.Copysign(0, -1)), float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1)), 1e-40, -3e-39, math.SmallestNonzeroFloat32}
	for i, v := range dOut.Data() {
		if rng.Intn(9) == 0 {
			v = specials[rng.Intn(len(specials))]
		}
		dOut.Data()[i] = v
	}
	// The root's gradient is BackwardWith's zeroed accumulator plus the seed,
	// so a −0 in the seed arrives as +0; a Scale by −1 between the root and
	// ReduceMiddle turns those into −0, so ReduceMiddle reads
	// od = (+0 + seed)·−1.
	od := make([]float32, n*d)
	var zero float32
	for i, v := range dOut.Data() {
		od[i] = (zero + v) * -1
	}
	for _, op := range []tensor.ReduceOp{tensor.ReduceSum, tensor.ReduceMean} {
		scale := float32(1)
		if op == tensor.ReduceMean {
			scale = 1 / float32(g)
		}
		want := make([]float32, n*g*d)
		for i := 0; i < n; i++ {
			for j := 0; j < g; j++ {
				for k := 0; k < d; k++ {
					want[(i*g+j)*d+k] = od[i*d+k] * scale
				}
			}
		}
		forParallelism(t, func(t *testing.T) {
			a := Param(x.Clone())
			Scale(ReduceMiddle(a, op), -1).BackwardWith(dOut)
			sameFloats(t, op.String(), want, a.Grad.Data())
		})
	}
}

func BenchmarkCrossEntropy(b *testing.B) {
	const n, c = 6000, 16
	rng := tensor.NewRNG(1)
	x := Param(tensor.RandN(rng, 2, n, c))
	labels := make([]int32, n)
	mask := make([]bool, n)
	for r := range labels {
		labels[r] = int32(rng.Intn(c))
		mask[r] = rng.Float32() < 0.7
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss := CrossEntropy(x, labels, mask)
		loss.Backward()
		ReleaseGraph(loss)
		tensor.Recycle(x.Grad)
		x.Grad = nil
	}
}

// BenchmarkLinearBackward times the backward pass of a ReLU Linear with bias
// over a constant 6 000 x 64 input (GCN's first layer at the train_gcn_dense
// shape): the seed copy, the mask, the bias sum and dW = xᵀ·dOut.
func BenchmarkLinearBackward(b *testing.B) {
	const n, dim = 6000, 64
	rng := tensor.NewRNG(1)
	l := NewLinear(dim, dim, true, rng)
	y := l.Apply(Constant(tensor.RandN(rng, 1, n, dim)), true)
	seed := tensor.RandN(rng, 1, n, dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y.BackwardWith(seed)
		for _, p := range l.Parameters() {
			tensor.Recycle(p.Grad)
			p.Grad = nil
		}
	}
}
