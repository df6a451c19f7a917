package tensor

// The assembly kernels of simd_amd64.s against Go loops, bit for bit: the
// streaming kernels against the plain loops of simd.go that run in
// their place, the two product kernels against loops written here straight
// from the contracts in their headers. Every NaN is treated alike (simd.go
// says why); everything else, signed zeros and denormals included, must have
// equal bits. On a build or CPU without the vector path there is nothing to
// compare and the tests skip.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// matmulRowRef is matmulRowVec's contract.
func matmulRowRef(dst, t, o, bias []float32, k, n, ts, os int, acc, relu bool) {
	for j := 0; j < n; j++ {
		var v float32
		if acc {
			v = dst[j]
		}
		for p := 0; p < k; p++ {
			v += float32(t[p*ts] * o[p*os+j])
		}
		if bias != nil {
			v += bias[j]
		}
		if relu && v < 0 {
			v = 0
		}
		dst[j] = v
	}
}

// matmulTRowRef is matmulTRowVec's contract: DotUnrolled's order per column.
func matmulTRowRef(dst, x, ot []float32, k, n int) {
	for j := 0; j < n; j++ {
		var s [4]float32
		k4 := k &^ 3
		for p := 0; p < k4; p++ {
			s[p%4] += float32(x[p] * ot[p*n+j])
		}
		for p := k4; p < k; p++ {
			s[0] += float32(x[p] * ot[p*n+j])
		}
		dst[j] = s[0] + s[1] + s[2] + s[3]
	}
}

// vecSpecials are the operand classes a kernel must treat as the scalar loop
// does: signed zeros, infinities, NaN, denormals, the largest finite value
// (sums overflow to Inf) and the smallest normal one (products underflow).
var vecSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	1e-40, -1e-40, math.SmallestNonzeroFloat32,
	math.MaxFloat32, -math.MaxFloat32, 1.1754944e-38, -1.1754944e-38,
}

// vecOperand returns n values inside a larger array, starting off floats
// into it so the kernels see every alignment, with a special value in about
// one place in spike (0 = none); whole includes the guard floats around it.
func vecOperand(rng *RNG, off, n, spike int) (whole, part []float32) {
	whole = make([]float32, off+n+9)
	for i := range whole {
		whole[i] = rng.NormFloat32()
		if spike > 0 && rng.Intn(spike) == 0 {
			whole[i] = vecSpecials[rng.Intn(len(vecSpecials))]
		}
	}
	return whole, whole[off : off+n : off+n]
}

// sameBitsModNaN is bitsEqualModNaN on plain slices.
func sameBitsModNaN(t *testing.T, what string, want, got []float32) {
	t.Helper()
	bitsEqualModNaN(t, what, FromSlice(want, len(want)), FromSlice(got, len(got)))
}

// needVec turns the vector path on for the test, or skips it.
func needVec(t testing.TB) {
	if !SetVectorKernels(true) {
		t.Skip("no vector kernels in this build or on this CPU")
	}
}

func TestVecStreamKernelsMatchReference(t *testing.T) {
	needVec(t)
	rng := NewRNG(24)
	for n := 0; n <= 67; n++ {
		for off := 0; off < 8; off++ {
			for _, spike := range []int{0, 5} {
				name := fmt.Sprintf("n=%d off=%d spike=%d", n, off, spike)
				dw, _ := vecOperand(rng, off, n, spike)
				_, x := vecOperand(rng, (off*3+1)%8, n, spike)
				a := rng.NormFloat32()
				if spike > 0 {
					a = vecSpecials[rng.Intn(len(vecSpecials))]
				}
				// Each case: the wrapper (assembly from vecMin up) on a copy
				// of the whole array, the reference loop on another; the
				// floats around dst must come back untouched as well.
				run := func(what string, vec, ref func(dst []float32)) {
					gw, ww := slices.Clone(dw), slices.Clone(dw)
					vec(gw[off : off+n : off+n])
					ref(ww[off : off+n : off+n])
					sameBitsModNaN(t, what+" "+name, ww, gw)
				}
				run("Add", func(d []float32) { AddUnrolled(d, x) }, func(d []float32) { addScalarLoop(d, x) })
				run("Axpy", func(d []float32) { AxpyUnrolled(d, x, a) }, func(d []float32) { axpyScalarLoop(d, x, a) })
				run("Scale", func(d []float32) { ScaleUnrolled(d, a) }, func(d []float32) { scaleScalarLoop(d, a) })
				// dst aliasing x.
				run("Add alias", func(d []float32) { AddUnrolled(d, d) }, func(d []float32) { addScalarLoop(d, d) })
				run("Axpy alias", func(d []float32) { AxpyUnrolled(d, d, a) }, func(d []float32) { axpyScalarLoop(d, d, a) })
			}
		}
	}
}

// TestVecSumRowsMatchReference holds the gather kernels to their plain loops:
// every width 1…130 (each non-multiple of 8 ends in the masked block), a
// column offset and a row pitch wider than the row as a hub's column split
// passes them, one index, repeated indices, rows spiked with NaN, ±Inf, −0
// and denormals or made of them entirely, weights of 0 and −0, both modes.
func TestVecSumRowsMatchReference(t *testing.T) {
	needVec(t)
	rng := NewRNG(31)
	negZero := float32(math.Copysign(0, -1))
	const rows = 9
	for n := 1; n <= 130; n++ {
		j0, off := n%5, (n*3)%8
		stride := n + j0 + n%3
		_, src := vecOperand(rng, n%8, rows*stride, []int{0, 4}[n%2])
		for j := range stride {
			src[7*stride+j] = vecSpecials[j%len(vecSpecials)]
			src[8*stride+j] = negZero
		}
		scale := make([]float32, rows)
		for r := range scale {
			scale[r] = rng.NormFloat32()
		}
		scale[1], scale[2] = 0, negZero
		long := make([]int32, 40)
		for p := range long {
			long[p] = int32(rng.Intn(rows))
		}
		for _, idx := range [][]int32{{3}, {8}, {7}, {1, 1}, {0, 2, 4}, {5, 5, 7, 2, 8, 1, 0}, long} {
			name := fmt.Sprintf("n=%d j0=%d stride=%d idx=%v", n, j0, stride, idx)
			dw, _ := vecOperand(rng, off, n, 0)
			run := func(what string, vec, ref func(dst []float32)) {
				gw, ww := slices.Clone(dw), slices.Clone(dw)
				vec(gw[off : off+n : off+n])
				ref(ww[off : off+n : off+n])
				sameBitsModNaN(t, what+" "+name, ww, gw)
			}
			for _, zero := range []bool{false, true} {
				run(fmt.Sprintf("SumRows zero=%v", zero),
					func(d []float32) { SumRows(d, src[j0:], stride, idx, zero) },
					func(d []float32) { SumRowsScalarLoop(d, src[j0:], stride, idx, zero) })
				run(fmt.Sprintf("SumRowsScaled zero=%v", zero),
					func(d []float32) { SumRowsScaled(d, src[j0:], stride, idx, scale, zero) },
					func(d []float32) { SumRowsScaledScalarLoop(d, src[j0:], stride, idx, scale, zero) })
			}
		}
		// The lone −0 of row 8: copy-first keeps it, a sum from +0 does not.
		for _, zero := range []bool{false, true} {
			dst := make([]float32, n)
			SumRows(dst, src[j0:], stride, []int32{8}, zero)
			if got := math.Signbit(float64(dst[n-1])); got == zero {
				t.Fatalf("n=%d zero=%v: lone -0 summed to %v", n, zero, dst[n-1])
			}
		}
	}
}

// TestSumRowsRejectsBadIndex: an index outside src's rows (or, weighted,
// outside scale) panics before anything is read or written — 1<<30 would
// fault in the assembly if it were loaded — on whichever paths the build has.
func TestSumRowsRejectsBadIndex(t *testing.T) {
	defer SetVectorKernels(true)
	const n, rows = 11, 4
	src, scale := make([]float32, rows*n), make([]float32, rows)
	for _, c := range []struct {
		name  string
		idx   []int32
		scale []float32
	}{
		{"negative", []int32{0, -1}, scale},
		{"min int32", []int32{math.MinInt32}, scale},
		{"one past the last row", []int32{1, rows}, scale},
		{"far", []int32{2, 1 << 30}, scale},
		{"past the weights", []int32{0, rows - 1}, scale[:rows-1]},
	} {
		for _, vec := range []bool{false, true} {
			if SetVectorKernels(vec) != vec {
				continue
			}
			for _, k := range []struct {
				name string
				call func(dst []float32)
			}{
				{"SumRows", func(d []float32) { SumRows(d, src, n, c.idx, false) }},
				{"SumRows zero", func(d []float32) { SumRows(d, src, n, c.idx, true) }},
				{"SumRowsScaled", func(d []float32) { SumRowsScaled(d, src, n, c.idx, c.scale, false) }},
				{"SumRowsScaled zero", func(d []float32) { SumRowsScaled(d, src, n, c.idx, c.scale, true) }},
			} {
				if !strings.HasPrefix(k.name, "SumRowsScaled") && len(c.scale) < rows {
					continue
				}
				dst := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s vec=%v %s: no panic", k.name, vec, c.name)
						}
					}()
					k.call(dst)
				}()
				for j, v := range dst {
					if v != float32(j+1) {
						t.Fatalf("%s vec=%v %s: dst written before the panic", k.name, vec, c.name)
					}
				}
			}
		}
	}
}

func TestVecProductKernelsMatchReference(t *testing.T) {
	needVec(t)
	rng := NewRNG(25)
	for n := 0; n <= 67; n++ {
		for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9} {
			off, spike := (n+k)%8, []int{0, 0, 40}[(n+k)%3]
			name := fmt.Sprintf("k=%d n=%d off=%d spike=%d", k, n, off, spike)
			// matmulRowVec in its three uses: a MatMulBias row (unit
			// strides, every epilogue), a later tmatmulVec chunk (both
			// operands strided, continuing dst) and its first chunk.
			for _, c := range []struct {
				ts, os          int
				acc, bias, relu bool
			}{
				{1, n, false, false, false}, {1, n, false, true, false}, {1, n, false, false, true}, {1, n, false, true, true},
				{3, n + 5, true, false, false}, {3, n + 5, false, false, false}, {2, n, true, true, true},
			} {
				dw, _ := vecOperand(rng, off, n, spike)
				_, x := vecOperand(rng, (off+3)%8, (k-1)*c.ts+1, spike)
				_, o := vecOperand(rng, (off+5)%8, (k-1)*c.os+n+1, spike)
				var bias []float32
				var bp *float32
				if c.bias && n > 0 {
					_, bias = vecOperand(rng, (off+6)%8, n, spike)
					bp = &bias[0]
				}
				gw, ww := slices.Clone(dw), slices.Clone(dw)
				matmulRowVec(&gw[off], &x[0], &o[0], bp, k, n, c.ts, c.os, c.acc, c.relu)
				matmulRowRef(ww[off:], x, o, bias, k, n, c.ts, c.os, c.acc, c.relu)
				sameBitsModNaN(t, fmt.Sprintf("matmulRowVec %s %+v", name, c), ww, gw)
			}
			if n < matmulTMin {
				continue
			}
			dw, _ := vecOperand(rng, off, n, 0)
			_, x := vecOperand(rng, (off+3)%8, k, spike)
			_, ot := vecOperand(rng, (off+5)%8, k*n, spike)
			gw, ww := slices.Clone(dw), slices.Clone(dw)
			matmulTRowVec(&gw[off], &x[0], &ot[0], k, n)
			matmulTRowRef(ww[off:], x, ot, k, n)
			sameBitsModNaN(t, "matmulTRowVec "+name, ww, gw)
		}
	}
	// dotRows: whole groups of eight rows on dotRowsVec, the rest on the
	// loop, at row counts 0…40 and widths that end in every masked tile
	// length (k < 8 is all masked tile).
	for m := 0; m <= 40; m++ {
		for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 64} {
			off, spike := (m+k)%8, []int{0, 0, 30}[(m+k)%3]
			name := fmt.Sprintf("dotRows m=%d k=%d off=%d spike=%d", m, k, off, spike)
			dw, _ := vecOperand(rng, off, m, 0)
			_, rows := vecOperand(rng, (off+3)%8, m*k, spike)
			_, x := vecOperand(rng, (off+5)%8, k, spike)
			gw, ww := slices.Clone(dw), slices.Clone(dw)
			dotRows(gw[off:off+m:off+m], rows, x)
			dotRowsScalarLoop(ww[off:off+m:off+m], rows, x)
			sameBitsModNaN(t, name, ww, gw)
		}
	}
}

// TestDenseProductsVecMatchesReferencePath runs the three products on both
// paths at the shapes the oracle grid leaves out: odd lane counts on every
// side (MatMulBias into 2…7 columns is rows as lanes, TMatMul from 8 output
// columns splits over them), reductions longer than a tmatmulVec chunk,
// special values.
func TestDenseProductsVecMatchesReferencePath(t *testing.T) {
	needVec(t)
	defer SetParallelism(0)
	defer SetVectorKernels(true)
	rng := NewRNG(26)
	spiked := func(x *Tensor, spike int) *Tensor {
		for i := range x.data {
			if spike > 0 && rng.Intn(spike) == 0 {
				x.data[i] = vecSpecials[rng.Intn(len(vecSpecials))]
			}
		}
		return x
	}
	both := func(f func() *Tensor) (vec, ref *Tensor) {
		SetVectorKernels(true)
		vec = f()
		SetVectorKernels(false)
		return vec, f()
	}
	for _, par := range []int{1, 2, 3, 8} {
		SetParallelism(par)
		for _, rows := range []int{1, 63, 64, 65, 130} {
			for _, in := range []int{8, 9, 15, 16, 17, 31, 33, 40, 50, 67} {
				for _, out := range []int{1, 2, 5, 7, 8, 9, 16, 19, 35} {
					spike := []int{0, 200}[(rows+in+out)%2]
					name := fmt.Sprintf("par%d %dx%dx%d spike=%d", par, rows, in, out, spike)
					x := spiked(sparsify(rng, RandN(rng, 1, rows, in)), spike)
					w := spiked(RandN(rng, 1, in, out), spike)
					b := RandN(rng, 1, 1, out)
					g := spiked(sparsify(rng, RandN(rng, 1, rows, out)), spike)
					vec, ref := both(func() *Tensor { return x.MatMulBias(w, b, true) })
					bitsEqualModNaN(t, "MatMulBias "+name, ref, vec)
					vec, ref = both(func() *Tensor { return x.TMatMul(g) })
					bitsEqualModNaN(t, "TMatMul "+name, ref, vec)
					vec, ref = both(func() *Tensor { return g.MatMulT(w) })
					bitsEqualModNaN(t, "MatMulT "+name, ref, vec)
				}
			}
		}
	}
}

// TestReferencePathSuites reruns the suites that pin the kernels' arithmetic
// — the dense oracle, row-subset invariance, the fused epilogue, the SIMD
// versus scalar loops — with the vector path switched off, so one `go test`
// holds both paths to the same frozen oracles.
func TestReferencePathSuites(t *testing.T) {
	needVec(t)
	SetVectorKernels(false)
	defer SetVectorKernels(true)
	t.Run("DenseProductsMatchOracle", TestDenseProductsMatchOracle)
	t.Run("RankOneProductsMatchOracle", TestRankOneProductsMatchOracle)
	t.Run("DenseProductsParallelGrain", TestDenseProductsParallelGrain)
	t.Run("MatMulRowSubsetInvariance", TestMatMulRowSubsetInvariance)
	t.Run("MatMulBiasMatchesComposition", TestMatMulBiasMatchesComposition)
	t.Run("DenseProductsPropagateNonFinite", TestDenseProductsPropagateNonFinite)
	t.Run("SIMDKernelsMatchScalar", TestSIMDKernelsMatchScalar)
}

// FuzzVecKernelsMatchReference feeds the kernels raw float32 bit patterns —
// NaN payloads, denormals and infinities at the fuzzer's whim. Layout: byte 0
// picks the kernel, byte 1 the alignment of dst, byte 2 the reduction length
// and flags of the product kernels (the index count, column offset and row
// count of the gather kernels, the row width of dotRows, the shape of a
// narrow MatMulBias), bytes 3..6 the scalar; the rest, four bytes a float, is
// split between the operands.
func FuzzVecKernelsMatchReference(f *testing.F) {
	seed := func(kernel, off, shape byte, a float32, vals ...float32) {
		b := []byte{kernel, off, shape, 0, 0, 0, 0}
		binary.LittleEndian.PutUint32(b[3:], math.Float32bits(a))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		f.Add(b)
	}
	ramp := make([]float32, 150)
	for i := range ramp {
		ramp[i] = float32(i%13) - 6.5
	}
	for kernel := byte(0); kernel < 11; kernel++ {
		seed(kernel, kernel, 3+16*kernel, 0.5, ramp...)
		seed(kernel, 7, 0xf2, float32(math.Inf(-1)), append(slices.Clone(vecSpecials), ramp[:60]...)...)
	}
	// dotRows with enough rows for the vector groups: k = 12 and k = 7.
	seed(9, 3, 11, 0, ramp...)
	seed(9, 5, 6, 0, append(slices.Clone(vecSpecials), ramp...)...)
	// A narrow MatMulBias with a group of eight rows and a remainder: n = 5,
	// k = 4, bias and ReLU; and n = 2, k = 9 with neither.
	seed(10, 0x18, 3*6+3, 0, append(slices.Clone(vecSpecials), ramp...)...)
	seed(10, 2, 8*6, 0, ramp...)
	f.Fuzz(func(t *testing.T, data []byte) {
		needVec(t)
		if len(data) < 7 {
			return
		}
		kernel, off, shape := data[0]%11, int(data[1]%8), data[2]
		a := math.Float32frombits(binary.LittleEndian.Uint32(data[3:]))
		vals := make([]float32, (len(data)-7)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[7+4*i:]))
		}
		// place copies x into an array at the given alignment.
		place := func(x []float32, off int) []float32 {
			w := make([]float32, off+len(x)+9)
			copy(w[off:], x)
			return w
		}
		switch kernel {
		case 0, 1, 2:
			n := len(vals) / 2
			x := place(vals[n:2*n], (off+3)%8)[(off+3)%8:][:n]
			gw, ww := place(vals[:n], off), place(vals[:n], off)
			g, w := gw[off:off+n:off+n], ww[off:off+n:off+n]
			switch kernel {
			case 0:
				AddUnrolled(g, x)
				addScalarLoop(w, x)
			case 1:
				AxpyUnrolled(g, x, a)
				axpyScalarLoop(w, x, a)
			case 2:
				ScaleUnrolled(g, a)
				scaleScalarLoop(w, a)
			}
			sameBitsModNaN(t, "stream kernel", ww, gw)
		case 3:
			// vals = dst[n] | bias[n] | t[k] | o[k*n]
			k := 1 + int(shape&7)
			if len(vals) < k {
				return
			}
			n := (len(vals) - k) / (k + 2)
			acc, relu, hasBias := shape&8 != 0, shape&16 != 0, shape&32 != 0 && n > 0
			bias, x, o := vals[n:2*n], vals[2*n:2*n+k], place(vals[2*n+k:2*n+k+k*n], 1)[1:]
			var bp *float32
			if hasBias {
				bp = &bias[0]
			} else {
				bias = nil
			}
			gw, ww := place(vals[:n], off), place(vals[:n], off)
			matmulRowVec(&gw[off], &x[0], &o[0], bp, k, n, 1, n, acc, relu)
			matmulRowRef(ww[off:], x, o, bias, k, n, 1, n, acc, relu)
			sameBitsModNaN(t, "matmulRowVec", ww, gw)
		case 4:
			// vals = x[k] | ot[k*n]
			k := 1 + int(shape&15)
			n := (len(vals) - k) / k
			if len(vals) < k || n < matmulTMin {
				return
			}
			x, ot := vals[:k], place(vals[k:k+k*n], 3)[3:]
			gw, ww := make([]float32, off+n+9), make([]float32, off+n+9)
			matmulTRowVec(&gw[off], &x[0], &ot[0], k, n)
			matmulTRowRef(ww[off:], x, ot, k, n)
			sameBitsModNaN(t, "matmulTRowVec", ww, gw)
		case 5, 6, 7, 8:
			// vals = idx[m] (bits mod rows) | scale[rows] | src[rows*stride],
			// each row read from column j0 on
			m, j0, rows := 1+int(shape&7), int(shape>>3&3), 1+int(shape>>5)
			stride := (len(vals) - m - rows) / rows
			n := stride - j0
			if n < 1 {
				return
			}
			idx := make([]int32, m)
			for p := range idx {
				idx[p] = int32(math.Float32bits(vals[p]) % uint32(rows))
			}
			scale, src := vals[m:m+rows], place(vals[m+rows:m+rows+rows*stride], 5)[5+j0:]
			gw, ww := make([]float32, off+n+9), make([]float32, off+n+9)
			g, w := gw[off:off+n:off+n], ww[off:off+n:off+n]
			if zero := kernel%2 == 0; kernel >= 7 {
				SumRowsScaled(g, src, stride, idx, scale, zero)
				SumRowsScaledScalarLoop(w, src, stride, idx, scale, zero)
			} else {
				SumRows(g, src, stride, idx, zero)
				SumRowsScalarLoop(w, src, stride, idx, zero)
			}
			sameBitsModNaN(t, "gather kernel", ww, gw)
		case 9:
			// vals = x[k] | rows[m*k]
			k := 1 + int(shape&63)
			if len(vals) < k {
				return
			}
			m := (len(vals) - k) / k
			x, rows := vals[:k], place(vals[k:k+m*k], 3)[3:][:m*k]
			gw, ww := place(make([]float32, m), off), place(make([]float32, m), off)
			dotRows(gw[off:off+m:off+m], rows, x)
			dotRowsScalarLoop(ww[off:off+m:off+m], rows, x)
			sameBitsModNaN(t, "dotRows", ww, gw)
		case 10:
			// MatMulBias into n = 2…7 columns against the Axpy4 loop, row by
			// row: vals = bias[n] | w[k*n] | x[m*k]; byte 1's bits 3 and 4
			// turn the bias and the ReLU on.
			n, k := 2+int(shape%6), 1+int(shape/6%16)
			if len(vals) < n+k*n+k {
				return
			}
			m := (len(vals) - n - k*n) / k
			hasBias, relu := data[1]&8 != 0, data[1]&16 != 0
			bias, w := FromSlice(vals[:n], 1, n), FromSlice(vals[n:n+k*n], k, n)
			x := FromSlice(vals[n+k*n:n+k*n+m*k], m, k)
			var bd []float32
			if !hasBias {
				bias = nil
			} else {
				bd = bias.data
			}
			got, want := x.MatMulBias(w, bias, relu), make([]float32, m*n)
			for i := 0; i < m; i++ {
				matmulRowScalarLoop(want[i*n:(i+1)*n], x.data[i*k:(i+1)*k], w.data, bd, relu)
			}
			sameBitsModNaN(t, "narrow MatMulBias", want, got.data)
		}
	})
}
