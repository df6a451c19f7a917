package tensor

// Frozen oracle for the dense products: naive triple loops written straight
// from the accumulation-order contract at the top of matmul.go. The kernels
// must agree with them bit for bit at every shape (tails included), at every
// parallelism, and on any subset of rows — the properties that keep
// loss_hash, strategy equivalence and serve ≡ Trainer.Predict bitwise. Do not
// "optimise" these loops; they are the specification.

import (
	"fmt"
	"math"
	"testing"
)

// oracleMatMul: out[i][j] = fold over p ascending of v += t[i][p]*o[p][j],
// from +0.
func oracleMatMul(t, o *Tensor) *Tensor {
	m, k, n := t.Dim(0), t.Dim(1), o.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var v float32
			for p := 0; p < k; p++ {
				v += t.data[i*k+p] * o.data[p*n+j]
			}
			out.data[i*n+j] = v
		}
	}
	return out
}

// oracleTMatMul: out[i][j] = fold over p ascending of v += t[p][i]*o[p][j],
// from +0.
func oracleTMatMul(t, o *Tensor) *Tensor {
	k, m, n := t.Dim(0), t.Dim(1), o.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var v float32
			for p := 0; p < k; p++ {
				v += t.data[p*m+i] * o.data[p*n+j]
			}
			out.data[i*n+j] = v
		}
	}
	return out
}

// oracleMatMulT: out[i][j] = ((s0+s1)+s2)+s3 with s_r the sum, p ascending
// from +0, of t[i][p]*o[j][p] over p ≡ r (mod 4) below k-k%4; the k%4 tail
// goes into s0.
func oracleMatMulT(t, o *Tensor) *Tensor {
	m, k, n := t.Dim(0), t.Dim(1), o.Dim(0)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s [4]float32
			k4 := k - k%4
			for p := 0; p < k4; p++ {
				s[p%4] += t.data[i*k+p] * o.data[j*k+p]
			}
			for p := k4; p < k; p++ {
				s[0] += t.data[i*k+p] * o.data[j*k+p]
			}
			out.data[i*n+j] = s[0] + s[1] + s[2] + s[3]
		}
	}
	return out
}

func bitsEqual(t *testing.T, what string, want, got *Tensor) {
	t.Helper()
	if !want.SameShape(got) {
		t.Fatalf("%s: shape %v, want %v", what, got.shape, want.shape)
	}
	for i := range want.data {
		if math.Float32bits(want.data[i]) != math.Float32bits(got.data[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i,
				got.data[i], math.Float32bits(got.data[i]), want.data[i], math.Float32bits(want.data[i]))
		}
	}
}

// sparsify zeroes about a third of t, as ReLU activations and masked
// gradients do, so the kernels see the exact-zero factors the old row skip
// used to branch on.
func sparsify(rng *RNG, t *Tensor) *Tensor {
	for i := range t.data {
		if rng.Intn(3) == 0 {
			t.data[i] = 0
		}
	}
	return t
}

func TestDenseProductsMatchOracle(t *testing.T) {
	defer SetParallelism(0)
	ms := []int{1, 3, 4, 7, 129}
	ks := []int{1, 3, 4, 5, 32, 64}
	ns := []int{1, 3, 4, 7, 8, 16, 50, 64, 65}
	for _, par := range []int{1, 2, 8} {
		SetParallelism(par)
		rng := NewRNG(uint64(par))
		for _, m := range ms {
			for _, k := range ks {
				for _, n := range ns {
					name := fmt.Sprintf("par%d %dx%dx%d", par, m, k, n)
					a := sparsify(rng, RandN(rng, 1, m, k))
					w := RandN(rng, 1, k, n)
					bitsEqual(t, "MatMul "+name, oracleMatMul(a, w), a.MatMul(w))
					// TMatMul reduces over the tall dimension: [m,k]ᵀ x [m,n].
					g := sparsify(rng, RandN(rng, 1, m, n))
					bitsEqual(t, "TMatMul "+name, oracleTMatMul(a, g), a.TMatMul(g))
					// MatMulT: [m,n] x [k,n]ᵀ, the dX = dOut @ Wᵀ shape.
					bitsEqual(t, "MatMulT "+name, oracleMatMulT(g, w), g.MatMulT(w))
				}
			}
		}
	}
}

// TestRankOneProductsMatchOracle: a [dim, 1] scorer over tall inputs — the
// shapes matmul.go dispatches to vector kernels (MatMul n = 1, TMatMul n = 1,
// MatMulT k = 1). Row counts straddle dotRows' eight-row vector groups, the
// scalar loop's four-row blocks and the worker split, include no rows at all, and the operands carry exact zeros (whose
// -0 products the +0 start must absorb) and non-finite values.
func TestRankOneProductsMatchOracle(t *testing.T) {
	defer SetParallelism(0)
	inf := float32(math.Inf(1))
	special := []float32{inf, -inf, float32(math.NaN()), float32(math.Copysign(0, -1))}
	for _, par := range []int{1, 2, 8} {
		SetParallelism(par)
		rng := NewRNG(uint64(40 + par))
		for _, rows := range []int{0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 4099} {
			for _, dim := range []int{1, 3, 4, 7, 64} {
				for _, spiked := range []bool{false, true} {
					name := fmt.Sprintf("par%d %dx%dx1 spiked=%v", par, rows, dim, spiked)
					x := sparsify(rng, RandN(rng, 1, rows, dim))
					a := RandN(rng, 1, dim, 1)
					dz := sparsify(rng, RandN(rng, 1, rows, 1))
					if spiked {
						for _, t := range []*Tensor{x, a, dz} {
							for i := range t.data {
								if rng.Intn(16) == 0 {
									t.data[i] = special[rng.Intn(len(special))]
								}
							}
						}
					}
					bitsEqualModNaN(t, "MatMul "+name, oracleMatMul(x, a), x.MatMul(a))
					bitsEqualModNaN(t, "TMatMul "+name, oracleTMatMul(x, dz), x.TMatMul(dz))
					bitsEqualModNaN(t, "MatMulT "+name, oracleMatMulT(dz, a), dz.MatMulT(a))
				}
			}
		}
	}
}

// TestDenseProductsParallelGrain uses shapes large enough that the grain
// really splits rows over workers (the grid above mostly runs inline).
func TestDenseProductsParallelGrain(t *testing.T) {
	defer SetParallelism(0)
	rng := NewRNG(9)
	a := sparsify(rng, RandN(rng, 1, 700, 37))
	w := RandN(rng, 1, 37, 29)
	g := RandN(rng, 1, 700, 29)
	for _, par := range []int{1, 2, 8} {
		SetParallelism(par)
		bitsEqual(t, "MatMul", oracleMatMul(a, w), a.MatMul(w))
		bitsEqual(t, "TMatMul", oracleTMatMul(a, g), a.TMatMul(g))
		bitsEqual(t, "MatMulT", oracleMatMulT(g, w), g.MatMulT(w))
	}
}

// TestMatMulRowSubsetInvariance: the product of a subset of rows equals the
// same rows of the full product, whatever position they land in — what lets
// the serving planner compute only a batch's rows and still match
// Trainer.Predict bitwise.
func TestMatMulRowSubsetInvariance(t *testing.T) {
	rng := NewRNG(5)
	x := sparsify(rng, RandN(rng, 1, 131, 37))
	w := RandN(rng, 1, 37, 19)
	b := RandN(rng, 1, 1, 19)
	rows := []int32{130, 0, 7, 7, 64, 3, 129, 65, 1}
	sub := Gather(x, rows)
	full, part := x.MatMulBias(w, b, true), sub.MatMulBias(w, b, true)
	bitsEqual(t, "MatMulBias rows", Gather(full, rows), part)
	v := RandN(rng, 1, 11, 37)
	bitsEqual(t, "MatMulT rows", Gather(x.MatMulT(v), rows), sub.MatMulT(v))
}

// TestMatMulBiasMatchesComposition pins the fused epilogue to the three
// separate passes it replaces.
func TestMatMulBiasMatchesComposition(t *testing.T) {
	rng := NewRNG(11)
	for _, s := range [][3]int{{1, 1, 1}, {9, 5, 3}, {33, 64, 16}, {70, 17, 65}} {
		x := sparsify(rng, RandN(rng, 1, s[0], s[1]))
		w := RandN(rng, 1, s[1], s[2])
		b := RandN(rng, 1, 1, s[2])
		sum := x.MatMul(w)
		bitsEqual(t, "bias", sum.Add(b), x.MatMulBias(w, b, false))
		bitsEqual(t, "relu", sum.ReLU(), x.MatMulBias(w, nil, true))
		bitsEqual(t, "bias+relu", sum.Add(b).ReLU(), x.MatMulBias(w, b, true))
	}
}

// TestDenseProductsPropagateNonFinite: a zero factor no longer masks a
// diverged operand. 0·Inf and 0·NaN are NaN, as in the naive reference; the
// row skip the kernels used to carry silently produced finite sums here.
func TestDenseProductsPropagateNonFinite(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for _, bad := range []float32{inf, -inf, nan} {
		// x row 0 is exactly zero where w carries the non-finite value.
		x := FromSlice([]float32{0, 1, 2, 3, 0, 1}, 2, 3)
		w := FromSlice([]float32{bad, 1, 1, 1, 1, 1}, 3, 2)
		got, want := x.MatMul(w), oracleMatMul(x, w)
		bitsEqualModNaN(t, "MatMul", want, got)
		if v := got.At(0, 0); v == v {
			t.Fatalf("MatMul: 0*%v was masked, got %v", bad, v)
		}
		if v := got.At(0, 1); v != 3 {
			t.Fatalf("MatMul: clean column disturbed, got %v", v)
		}
		// TMatMul: xᵀ[3,2] @ g[2,2]; x[0][0] = 0 meets g[0][0] = bad.
		g := FromSlice([]float32{bad, 1, 1, 1}, 2, 2)
		gotT, wantT := x.TMatMul(g), oracleTMatMul(x, g)
		bitsEqualModNaN(t, "TMatMul", wantT, gotT)
		if v := gotT.At(0, 0); v == v {
			t.Fatalf("TMatMul: 0*%v was masked, got %v", bad, v)
		}
	}
}

// bitsEqualModNaN is bitsEqual with every NaN treated alike (payload and
// sign of a produced NaN are the hardware's choice).
func bitsEqualModNaN(t *testing.T, what string, want, got *Tensor) {
	t.Helper()
	if !want.SameShape(got) {
		t.Fatalf("%s: shape %v, want %v", what, got.shape, want.shape)
	}
	for i := range want.data {
		w, g := want.data[i], got.data[i]
		if w != w && g != g {
			continue
		}
		if math.Float32bits(w) != math.Float32bits(g) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, g, w)
		}
	}
}
