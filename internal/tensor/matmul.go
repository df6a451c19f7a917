package tensor

import "fmt"

// The three dense products of the Update stage and its backward pass. Their
// per-element accumulation order is a contract (DESIGN.md "Dense path"):
//
//   - MatMul and TMatMul: out[i][j] starts at +0 and adds a[p]*b[p][j] for
//     p = 0, 1, ..., k-1, one rounded multiply and one rounded add per term;
//   - MatMulT: DotUnrolled's order — four partial sums over p ≡ 0..3 (mod 4),
//     the k%4 tail folded into the first, combined as ((s0+s1)+s2)+s3.
//
// An element's value therefore depends on neither m, nor the row's position
// in a tile, nor how rows were split over workers: serving a vertex subset
// reproduces Trainer.Predict bit for bit, and so does every strategy and
// parallelism setting. The kernels only change how often operands travel, and
// there are two sets of them with the same bits (simd.go).
//
// On the vector path a sum lives in a register lane from its first term to
// its last: matmulRowVec computes an output row of MatMul for all of k with
// the Linear epilogue folded in, TMatMul runs on the same kernel with the
// output transposed (tmatmulVec), and MatMulT transposes its right operand
// once so that matmulTRowVec has the output columns as its lanes and needs no
// horizontal sum. The Go loops below them are the reference path: MatMul and
// TMatMul consume p in blocks of four through Axpy4, so an output row is
// loaded and stored once per four terms instead of once per term, and TMatMul
// walks p outermost so both [k, ·] operands stream once while the [m, n]
// output stays cache-resident; MatMulT shares each left-row load between two
// output columns. No term is skipped for a zero factor on either path: 0·Inf
// and 0·NaN are NaN, as in the naive triple loop.
//
// Narrow shapes are dispatched on shape to kernels that form the same terms
// in the same order with the long side as the lanes. MatMul into fewer than
// eight columns runs rows as lanes (matmulNarrow): one p-ascending dot per row
// and column through dotRows, W's columns packed once when there are two or
// more, the epilogue applied while the columns are interleaved into output
// rows. With one column — a [dim, 1] scorer applied to every row — this is
// every path's loop; with 2…7 (the output layer of a 5-class model) the
// vector path's, and there the rows past a worker's last group of eight, and
// all of a call with fewer than eight, run matmulRowVec's masked block. The
// two products of the scorer's backward pass are loops over whole vectors:
// TMatMul with n = 1 one Axpy4 of four whole t rows per four p, MatMulT with
// k = 1 the outer product +0 + t[i]·o[j] (DotUnrolled's first partial sum;
// the other three stay +0). The general loops would reach the same values
// through short Axpy4 and dot2Unrolled calls, one per output element per four
// terms.

// MatMul returns t @ o for 2-D tensors [m,k] x [k,n] -> [m,n].
func (t *Tensor) MatMul(o *Tensor) *Tensor { return t.MatMulBias(o, nil, false) }

// MatMulBias returns t @ o with the Linear layer's epilogue applied to each
// output row while it is still in cache: bias (a [1,n] row, nil for none) is
// added to the completed sums, then relu clamps negatives to zero. The result
// is bitwise what MatMul, Add and ReLU produce in sequence.
func (t *Tensor) MatMulBias(o, bias *Tensor, relu bool) *Tensor {
	if t.Dims() != 2 || o.Dims() != 2 || t.Dim(1) != o.Dim(0) {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v x %v", t.shape, o.shape))
	}
	m, k, n := t.Dim(0), t.Dim(1), o.Dim(1)
	if bias != nil && (bias.Dims() != 2 || bias.Dim(0) != 1 || bias.Dim(1) != n) {
		panic(fmt.Sprintf("tensor: MatMulBias bias %v for output [%d,%d]", bias.shape, m, n))
	}
	out := NewUninit(m, n) // every element is written below
	var bd []float32
	if bias != nil {
		bd = bias.data
	}
	if n == 1 || useVec && n < vecMin && m >= vecMin {
		t.matmulNarrow(out, o, bd, relu)
		return out
	}
	ParallelForGrain(m, GrainForCost(k*n), func(rs, re int) {
		for i := rs; i < re; i++ {
			matmulRow(out.data[i*n:(i+1)*n], t.data[i*k:(i+1)*k], o.data, bd, relu)
		}
	})
	return out
}

// matmulNarrow writes out = t @ o with MatMulBias's epilogue for an o of
// fewer than eight columns, rows as lanes: o's columns are packed once into
// cols (a single column is o itself), and each worker runs its rows through
// dotRows one column at a time into sums, [n][m] (out itself when n = 1),
// then interleaves the columns into output rows with bias added and the ReLU
// clamp applied as matmulRow applies them. Every output is still one
// p-ascending chain from +0, then +bias, then the clamp, so its bits are
// matmulRow's. With two or more columns a worker's rows past its last group
// of eight run matmulRow instead: its masked block does such a row in one
// pass, where dotRows would take it in scalar Go one column at a time.
func (t *Tensor) matmulNarrow(out, o *Tensor, bias []float32, relu bool) {
	m, k, n := t.Dim(0), t.Dim(1), o.Dim(1)
	cols, sums := o.data, out.data
	var buf []float32
	if n > 1 {
		buf = GetBufUninit(n * (k + m))
		cols, sums = buf[:n*k], buf[n*k:]
		for p, row := 0, o.data; p < k; p++ {
			for j, v := range row[p*n : (p+1)*n] {
				cols[j*k+p] = v
			}
		}
	}
	// One column with no bias and no clamp: the sums are the output.
	epilogue := n > 1 || bias != nil || relu
	ParallelForGrain(m, GrainForCost(k*n), func(rs, re int) {
		g := re // end of the rows dotRows takes
		if n > 1 {
			g -= (re - rs) & 7
		}
		for j := 0; j < n; j++ {
			dotRows(sums[j*m+rs:j*m+g], t.data[rs*k:g*k], cols[j*k:(j+1)*k])
		}
		for i := rs; i < g && epilogue; i++ {
			dst := out.data[i*n : (i+1)*n]
			for j := range dst {
				v := sums[j*m+i]
				if bias != nil {
					v += bias[j]
				}
				if relu && v < 0 {
					v = 0
				}
				dst[j] = v
			}
		}
		for i := g; i < re; i++ {
			matmulRow(out.data[i*n:(i+1)*n], t.data[i*k:(i+1)*k], o.data, bias, relu)
		}
	})
	PutBuf(buf) // nil when n = 1: a no-op
}

// matmulRow writes one output row of MatMulBias: dst = x @ o, plus bias when
// it is not nil, clamped at zero when relu — o being the [len(x), len(dst)]
// right operand. The vector kernel keeps the row's sums in registers for all
// of k (any width from 2; a narrower row is one masked block);
// matmulRowScalarLoop is what it reproduces.
func matmulRow(dst, x, o, bias []float32, relu bool) {
	k, n := len(x), len(dst)
	if useVec && n >= 2 && k > 0 {
		var b *float32
		if bias != nil {
			b = &bias[0]
		}
		matmulRowVec(&dst[0], &x[0], &o[0], b, k, n, 1, n, false, relu)
		return
	}
	matmulRowScalarLoop(dst, x, o, bias, relu)
}

// matmulRowScalarLoop is the loop behind matmulRow: its fallback and its
// oracle. p goes in blocks of four through Axpy4.
func matmulRowScalarLoop(dst, x, o, bias []float32, relu bool) {
	k, n := len(x), len(dst)
	clear(dst)
	p := 0
	for ; p+4 <= k; p += 4 {
		Axpy4(dst, o[p*n:(p+1)*n], o[(p+1)*n:(p+2)*n], o[(p+2)*n:(p+3)*n], o[(p+3)*n:(p+4)*n],
			x[p], x[p+1], x[p+2], x[p+3])
	}
	for ; p < k; p++ {
		AxpyUnrolled(dst, o[p*n:(p+1)*n], x[p])
	}
	if bias != nil {
		AddUnrolled(dst, bias)
	}
	if relu {
		clampNegative(dst)
	}
}

// clampNegative is ReLU in place: -0 and NaN are not below zero and stay.
func clampNegative(dst []float32) {
	for j, v := range dst {
		if v < 0 {
			dst[j] = 0
		}
	}
}

// dotRows writes dst[i] = Σ_p rows[i][p]·x[p] for the len(dst) rows of width
// len(x) packed in rows, each sum starting at +0 and taking p in ascending
// order through a single accumulator — MatMul's order for a one-column right
// operand. The vector kernel takes the rows eight at a time, one row per
// lane, and dotRowsScalarLoop the rest.
func dotRows(dst, rows, x []float32) {
	k := len(x)
	if len(rows) != len(dst)*k {
		panic("tensor: dotRows length mismatch")
	}
	if m := len(dst) &^ 7; useVec && m > 0 && k > 0 {
		dotRowsVec(&dst[0], &rows[0], &x[0], m, k)
		dst, rows = dst[m:], rows[m*k:]
	}
	dotRowsScalarLoop(dst, rows, x)
}

// dotRowsScalarLoop is the loop behind dotRows: its fallback and its oracle.
// One such sum is a chain of dependent adds, so four rows run abreast,
// sharing each load of x.
func dotRowsScalarLoop(dst, rows, x []float32) {
	k := len(x)
	if len(rows) != len(dst)*k {
		panic("tensor: dotRows length mismatch")
	}
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		r0, r1 := rows[i*k:][:k], rows[(i+1)*k:][:k]
		r2, r3 := rows[(i+2)*k:][:k], rows[(i+3)*k:][:k]
		var s0, s1, s2, s3 float32
		for p, xv := range x {
			s0 += r0[p] * xv
			s1 += r1[p] * xv
			s2 += r2[p] * xv
			s3 += r3[p] * xv
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < len(dst); i++ {
		r := rows[i*k:][:k]
		var s float32
		for p, xv := range x {
			s += r[p] * xv
		}
		dst[i] = s
	}
}

// MatMulT returns t @ oᵀ for 2-D tensors [m,k] x [n,k] -> [m,n]. Using the
// transposed right operand keeps both inner accesses sequential, which is
// the layout the backward pass of Linear needs (grad of the input).
func (t *Tensor) MatMulT(o *Tensor) *Tensor {
	if t.Dims() != 2 || o.Dims() != 2 || t.Dim(1) != o.Dim(1) {
		panic(fmt.Sprintf("tensor: MatMulT shape mismatch %v x %vᵀ", t.shape, o.shape))
	}
	m, k, n := t.Dim(0), t.Dim(1), o.Dim(0)
	out := NewUninit(m, n) // every element written below
	if useVec && k > 1 && n >= matmulTMin {
		// The vector kernel wants the output columns as its lanes: o
		// transposed once, [k, n], so a row of it is one term of n dots.
		ot := GetBufUninit(k * n)
		for j := 0; j < n; j++ {
			for p, v := range o.data[j*k : (j+1)*k] {
				ot[p*n+j] = v
			}
		}
		ParallelForGrain(m, GrainForCost(k*n), func(rs, re int) {
			for i := rs; i < re; i++ {
				matmulTRowVec(&out.data[i*n], &t.data[i*k], &ot[0], k, n)
			}
		})
		PutBuf(ot)
		return out
	}
	ParallelForGrain(m, GrainForCost(k*n), func(rs, re int) {
		for i := rs; i < re; i++ {
			ti := t.data[i*k : (i+1)*k]
			oi := out.data[i*n : (i+1)*n]
			if k == 1 {
				var zero float32 // +0 + x is x except for x = -0, which becomes +0
				tv, ov := ti[0], o.data[:len(oi)]
				for j := range oi {
					oi[j] = zero + tv*ov[j]
				}
				continue
			}
			j := 0
			for ; j+2 <= n; j += 2 {
				oi[j], oi[j+1] = dot2Unrolled(ti, o.data[j*k:(j+1)*k], o.data[(j+1)*k:(j+2)*k])
			}
			if j < n {
				oi[j] = DotUnrolled(ti, o.data[j*k:(j+1)*k])
			}
		}
	})
	return out
}

// dot2Unrolled returns DotUnrolled(x, a) and DotUnrolled(x, b), loading x
// once for both.
func dot2Unrolled(x, a, b []float32) (float32, float32) {
	n := len(x)
	if len(a) != n || len(b) != n {
		panic("tensor: dot length mismatch")
	}
	var a0, a1, a2, a3, b0, b1, b2, b3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		xs, as, bs := x[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		a0 += xs[0] * as[0]
		a1 += xs[1] * as[1]
		a2 += xs[2] * as[2]
		a3 += xs[3] * as[3]
		b0 += xs[0] * bs[0]
		b1 += xs[1] * bs[1]
		b2 += xs[2] * bs[2]
		b3 += xs[3] * bs[3]
	}
	for ; i < n; i++ {
		a0 += x[i] * a[i]
		b0 += x[i] * b[i]
	}
	return a0 + a1 + a2 + a3, b0 + b1 + b2 + b3
}

// TMatMul returns tᵀ @ o for 2-D tensors [k,m] x [k,n] -> [m,n], the other
// product shape the Linear backward pass needs (grad of the weight). k is
// the vertex dimension there, so p runs outermost: each block of four operand
// rows is read once and folded into every output row of the worker's range.
func (t *Tensor) TMatMul(o *Tensor) *Tensor {
	if t.Dims() != 2 || o.Dims() != 2 || t.Dim(0) != o.Dim(0) {
		panic(fmt.Sprintf("tensor: TMatMul shape mismatch %vᵀ x %v", t.shape, o.shape))
	}
	k, m, n := t.Dim(0), t.Dim(1), o.Dim(1)
	if useVec && k > 0 && m >= vecMin {
		return t.tmatmulVec(o)
	}
	out := NewPooled(m, n)
	grain := GrainForCost(k * n)
	if n == 1 {
		// A worker's share of the single output column is one vector; below
		// 64 elements the per-p kernel call outweighs the elements it folds.
		grain = max(grain, 64)
	}
	// Workers own disjoint ranges of output rows (columns of t).
	ParallelForGrain(m, grain, func(rs, re int) {
		if n == 1 {
			// out is one column, so the worker's rows are a contiguous
			// vector and each t row folds into all of them at once.
			dst, p := out.data[rs:re], 0
			for ; p+4 <= k; p += 4 {
				Axpy4(dst, t.data[p*m+rs:p*m+re], t.data[(p+1)*m+rs:(p+1)*m+re],
					t.data[(p+2)*m+rs:(p+2)*m+re], t.data[(p+3)*m+rs:(p+3)*m+re],
					o.data[p], o.data[p+1], o.data[p+2], o.data[p+3])
			}
			for ; p < k; p++ {
				AxpyUnrolled(dst, t.data[p*m+rs:p*m+re], o.data[p])
			}
			return
		}
		p := 0
		for ; p+4 <= k; p += 4 {
			o0, o1 := o.data[p*n:(p+1)*n], o.data[(p+1)*n:(p+2)*n]
			o2, o3 := o.data[(p+2)*n:(p+3)*n], o.data[(p+3)*n:(p+4)*n]
			t0, t1 := t.data[p*m:(p+1)*m], t.data[(p+1)*m:(p+2)*m]
			t2, t3 := t.data[(p+2)*m:(p+3)*m], t.data[(p+3)*m:(p+4)*m]
			for i := rs; i < re; i++ {
				Axpy4(out.data[i*n:(i+1)*n], o0, o1, o2, o3, t0[i], t1[i], t2[i], t3[i])
			}
		}
		for ; p < k; p++ {
			op, tp := o.data[p*n:(p+1)*n], t.data[p*m:(p+1)*m]
			for i := rs; i < re; i++ {
				AxpyUnrolled(out.data[i*n:(i+1)*n], op, tp[i])
			}
		}
	})
	return out
}

// tmatmulChunk is how many operand rows tmatmulVec folds into every sum
// before moving on: 64 rows of a [k, 64] pair are 32 KiB, so both chunks stay
// in L1 while the sums take their turns.
const tmatmulChunk = 64

// tmatmulVec is TMatMul on matmulRowVec with the output transposed: row j of
// acc holds column j of the result, out[·][j] = Σ_p o[p][j]·t[p][·], so o's
// scalars are the broadcast operand and t's rows the vectors. The products
// commute and p still ascends along one chain per element, continued from
// chunk to chunk through acc, so the bits are TMatMul's. o is the side to
// broadcast because it is the gradient in every caller (dW = xᵀ @ dOut), and
// gradients carry the denormals (DESIGN.md "Dense path"): a denormal that is
// broadcast slows the m/8 multiplies of its own term, one that sits in a
// vector slows that vector's multiply for every output row.
//
// With n ≥ 8 workers own disjoint ranges of acc's rows (o's columns), so each
// call sweeps a t row's whole m floats in 32- and 16-wide blocks — split over
// m, a worker's share of a 50-feature row is a 16-wide block plus a masked
// 9-wide one. The [n, m] → [m, n] interleave is then its own pass split over
// the output's rows: done inside the n split, two workers would write into
// the same output cache lines. Narrower outputs keep the split over m.
func (t *Tensor) tmatmulVec(o *Tensor) *Tensor {
	k, m, n := t.Dim(0), t.Dim(1), o.Dim(1)
	out := NewUninit(m, n) // every element written below
	acc := GetBufUninit(n * m)
	if n >= vecMin {
		ParallelForGrain(n, GrainForCost(k*m), func(js, je int) {
			for p0 := 0; p0 < k; p0 += tmatmulChunk {
				kc := min(tmatmulChunk, k-p0)
				for j := js; j < je; j++ {
					matmulRowVec(&acc[j*m], &o.data[p0*n+j], &t.data[p0*m], nil, kc, m, n, m, p0 > 0, false)
				}
			}
		})
		ParallelForGrain(m, GrainForCost(n), func(rs, re int) {
			transposeRows(out.data, acc, rs, re, m, n)
		})
	} else {
		// Workers own disjoint ranges of output rows (columns of t).
		ParallelForGrain(m, max(GrainForCost(k*n), 2*vecMin), func(rs, re int) {
			for p0 := 0; p0 < k; p0 += tmatmulChunk {
				kc := min(tmatmulChunk, k-p0)
				for j := 0; j < n; j++ {
					matmulRowVec(&acc[j*m+rs], &o.data[p0*n+j], &t.data[p0*m+rs], nil, kc, re-rs, n, m, p0 > 0, false)
				}
			}
			transposeRows(out.data, acc, rs, re, m, n)
		})
	}
	PutBuf(acc)
	return out
}

// transposeRows writes rows [rs, re) of the [m, n] out from the [n, m] acc.
func transposeRows(out, acc []float32, rs, re, m, n int) {
	for i := rs; i < re; i++ {
		for j := 0; j < n; j++ {
			out[i*n+j] = acc[j*m+i]
		}
	}
}

// transposeTile is the square tile edge for Transpose2D; 32x32 float32 tiles
// (4 KiB in, 4 KiB out) keep both access patterns cache-resident.
const transposeTile = 32

// Transpose2D returns the transpose of a 2-D tensor as a new tensor. Row
// ranges transpose in parallel and each range is walked in square tiles so
// the strided writes stay within a cache-resident window. It is a test
// reference: the dense products never transpose, and the tensor tests check
// TMatMul and MatMulT against MatMul over it.
func (t *Tensor) Transpose2D() *Tensor {
	if t.Dims() != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D on shape %v", t.shape))
	}
	m, n := t.Dim(0), t.Dim(1)
	out := NewUninit(n, m) // every element is written below
	ParallelForGrain(m, GrainForCost(n), func(rs, re int) {
		for i0 := rs; i0 < re; i0 += transposeTile {
			i1 := i0 + transposeTile
			if i1 > re {
				i1 = re
			}
			for j0 := 0; j0 < n; j0 += transposeTile {
				j1 := j0 + transposeTile
				if j1 > n {
					j1 = n
				}
				for i := i0; i < i1; i++ {
					row := t.data[i*n : (i+1)*n]
					for j := j0; j < j1; j++ {
						out.data[j*m+i] = row[j]
					}
				}
			}
		}
	})
	return out
}
