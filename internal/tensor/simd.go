package tensor

import (
	"fmt"
	"math"
)

// This file holds the feature-fusion kernels the paper runs on Intel AVX-512.
// The arithmetic ones run as AVX2 Go-assembly kernels (simd_amd64.s) on amd64
// CPUs that have AVX2: AxpyUnrolled, AddUnrolled and ScaleUnrolled here, the
// gather kernels SumRows and SumRowsScaled, and the row kernels of the dense
// products in matmul.go. Everywhere else — other architectures, the purego
// build tag, an amd64 CPU without AVX2, and streaming rows shorter than one
// vector, which are not worth a call — the plain Go loops below (*ScalarLoop)
// and the loops of matmul.go run instead: the reference path. Both give the
// same bits, because the vector path only ever does what the loops do, eight
// output elements at a time: the elements of one call are
// independent, each term is one rounded multiply then one rounded add (VMULPS
// + VADDPS, never a fused multiply-add, whose single rounding differs), terms
// are taken in the loops' order, and MXCSR is left alone, so denormals stay
// denormals. The bits of a NaN result are the one thing not promised (an
// element that is NaN on one path is NaN on the other): when both operands of
// an add or multiply are NaN the hardware keeps the first one's payload, and
// the compiler orders the scalar loops' operands as its register allocator
// likes.
//
// One vector width ships. A 128-bit build of the same kernels needs no CPU
// probe but measured 31 % slower end to end (CHANGES.md, PR 24). AVX-512
// would halve the instruction count again on the CPUs that have it, for a
// second probe, a second copy of every kernel and a second leg in every
// parity test, on rows that are 16 to 64 floats long — one or two iterations.
// The max/min/arg kernels stay Go: VMAXPS returns its second operand when
// either is NaN and treats -0 and +0 as equal, which is not the builtin max
// the tie-breaking contract below is written against. Axpy4 and DotUnrolled
// stay Go because nothing on the vector path calls them: the products keep
// their sums in registers instead (matmul.go), and so do the gather kernels.
//
// The gather kernels SumRows/SumRowsScaled are the fused passes' one call per
// destination (the streaming kernels are one call per edge, storing and
// reloading dst each time): a destination's columns stay in registers across
// its index list. Per column they add the same rows in the same order as a
// copy plus one AddUnrolled (AxpyUnrolled) per row, so the order contract and
// the bits are unchanged; what they add is a check of every index.
//
// The *ScalarLoop functions are plain one-element loops. For the elementwise
// add/axpy/scale kernels and the gathers unrolling defines no rounding order,
// so one set of them is the reference path, the oracle the parity tests and
// the fuzz target hold the assembly to bit for bit, and the scalar side of the
// SIMD ablation (FusedAggregateScalar). The max/min family keeps a
// hand-unrolled tier beside its scalar loops.

const (
	// vecMin is the shortest row handed to the assembly: one 8-lane vector.
	vecMin = 8
	// matmulTMin is the narrowest output row matmulTRowVec takes: one
	// column block.
	matmulTMin = 16
)

// AxpyUnrolled computes dst[i] += a*x[i].
func AxpyUnrolled(dst, x []float32, a float32) {
	n := len(dst)
	if len(x) != n {
		panic("tensor: axpy length mismatch")
	}
	if useVec && n >= vecMin {
		axpyVec(&dst[0], &x[0], n, a)
		return
	}
	axpyScalarLoop(dst, x, a)
}

// Axpy4 folds four scaled rows into dst in one pass:
//
//	dst[j] = (((dst[j] + a0*x0[j]) + a1*x1[j]) + a2*x2[j]) + a3*x3[j]
//
// exactly the value four AxpyUnrolled calls in that order leave — the same
// adds in the same order — but dst is loaded and stored once per element
// instead of four times. The reference path of the dense products is built on
// it (matmul.go).
func Axpy4(dst, x0, x1, x2, x3 []float32, a0, a1, a2, a3 float32) {
	n := len(dst)
	if len(x0) != n || len(x1) != n || len(x2) != n || len(x3) != n {
		panic("tensor: axpy4 length mismatch")
	}
	for j := range dst {
		v := dst[j]
		v += a0 * x0[j]
		v += a1 * x1[j]
		v += a2 * x2[j]
		v += a3 * x3[j]
		dst[j] = v
	}
}

// AddUnrolled computes dst[i] += x[i].
func AddUnrolled(dst, x []float32) {
	n := len(dst)
	if len(x) != n {
		panic("tensor: add length mismatch")
	}
	if useVec && n >= vecMin {
		addVec(&dst[0], &x[0], n)
		return
	}
	addScalarLoop(dst, x)
}

// addScalarLoop is the plain loop behind AddUnrolled.
func addScalarLoop(dst, x []float32) {
	if len(x) != len(dst) {
		panic("tensor: add length mismatch")
	}
	for i := 0; i < len(dst); i++ {
		dst[i] += x[i]
	}
}

// axpyScalarLoop is the plain loop behind AxpyUnrolled.
func axpyScalarLoop(dst, x []float32, a float32) {
	if len(x) != len(dst) {
		panic("tensor: axpy length mismatch")
	}
	for i := 0; i < len(dst); i++ {
		dst[i] += a * x[i]
	}
}

// SumRows sets dst to the sum of the rows src[r*stride:][:len(dst)] for r in
// idx, added in idx order: copy-first (row₀ + row₁ + …), or from +0 when
// fromZero is set (the same bits, except that a lone -0 comes out +0, as
// clear + AddUnrolled per row leaves it). An empty idx gives a zero row.
// Every index is checked against src's rows first, so a bad one panics, as
// slicing would, before anything is read or written. dst must not overlap src.
func SumRows(dst, src []float32, stride int, idx []int32, fromZero bool) {
	if !useVec || len(dst) == 0 || len(idx) == 0 {
		SumRowsScalarLoop(dst, src, stride, idx, fromZero)
		return
	}
	checkRows(idx, rowCount(src, stride, len(dst)))
	sumRowsVec(&dst[0], &src[0], &idx[0], len(idx), len(dst), stride, fromZero)
}

// SumRowsScaled is SumRows with row r weighted by scale[r]: each term is one
// rounded product, added as AxpyUnrolled adds it (copy-first: the first
// product is stored as it is).
func SumRowsScaled(dst, src []float32, stride int, idx []int32, scale []float32, fromZero bool) {
	if !useVec || len(dst) == 0 || len(idx) == 0 {
		SumRowsScaledScalarLoop(dst, src, stride, idx, scale, fromZero)
		return
	}
	checkRows(idx, min(rowCount(src, stride, len(dst)), len(scale)))
	sumRowsScaledVec(&dst[0], &src[0], &idx[0], &scale[0], len(idx), len(dst), stride, fromZero)
}

// SumRowsScalarLoop is the plain loop behind SumRows: its fallback, its
// oracle, and the scalar side of the SIMD ablation.
func SumRowsScalarLoop(dst, src []float32, stride int, idx []int32, fromZero bool) {
	n := len(dst)
	checkRows(idx, rowCount(src, stride, n))
	if fromZero || len(idx) == 0 {
		clear(dst)
	} else {
		copy(dst, src[int(idx[0])*stride:][:n])
		idx = idx[1:]
	}
	for _, r := range idx {
		row := src[int(r)*stride:][:n]
		for j := range dst {
			dst[j] += row[j]
		}
	}
}

// SumRowsScaledScalarLoop is the plain loop behind SumRowsScaled.
func SumRowsScaledScalarLoop(dst, src []float32, stride int, idx []int32, scale []float32, fromZero bool) {
	n := len(dst)
	checkRows(idx, min(rowCount(src, stride, n), len(scale)))
	if fromZero || len(idx) == 0 {
		clear(dst)
	} else {
		row, a := src[int(idx[0])*stride:][:n], scale[idx[0]]
		for j := range dst {
			dst[j] = row[j] * a
		}
		idx = idx[1:]
	}
	for _, r := range idx {
		row, a := src[int(r)*stride:][:n], scale[r]
		for j := range dst {
			dst[j] += float32(a * row[j])
		}
	}
}

// rowCount is how many whole rows src[r*stride:][:n] src holds (with stride
// 0, every index names src[:n]).
func rowCount(src []float32, stride, n int) int {
	switch {
	case len(src) < n:
		return 0
	case stride == 0:
		return math.MaxInt
	}
	return (len(src)-n)/stride + 1
}

// checkRows panics unless every index is in [0, rows).
func checkRows(idx []int32, rows int) {
	for _, r := range idx {
		if uint(r) >= uint(rows) {
			panic(fmt.Sprintf("tensor: row index %d out of range [0:%d]", r, rows))
		}
	}
}

// The max/min family below implements the IEEE-style builtin semantics of
// Go's min/max: NaN propagates from either operand and +0 orders above -0.
// The builtin compiles to branchless compare-select code, which is what
// unsticks the max kernels from scalar-branch speed: the old
// `if x > d { d = x }` loop mispredicts on power-law aggregation patterns
// and measured ~2.4x slower than the builtin on the bench machine.
//
// The Arg variants track which contribution produced each output element
// (the argmax the backward pass routes gradients through). They replace an
// element exactly when the builtin fold would change its value — first
// occurrence wins on ties, a NaN contribution captures the element unless it
// is already NaN, and +0 replaces -0 — so the tracked and untracked kernels
// produce bitwise-identical values (NaN payloads excepted: the builtin may
// quiet them) on any input. The equivalence is pinned by
// TestExtremeTieBreaking.

// MaxUnrolled computes dst[i] = max(dst[i], x[i]) with 8-wide unrolling.
func MaxUnrolled(dst, x []float32) {
	n := len(dst)
	if len(x) != n {
		panic("tensor: max length mismatch")
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		dst[i] = max(dst[i], x[i])
		dst[i+1] = max(dst[i+1], x[i+1])
		dst[i+2] = max(dst[i+2], x[i+2])
		dst[i+3] = max(dst[i+3], x[i+3])
		dst[i+4] = max(dst[i+4], x[i+4])
		dst[i+5] = max(dst[i+5], x[i+5])
		dst[i+6] = max(dst[i+6], x[i+6])
		dst[i+7] = max(dst[i+7], x[i+7])
	}
	for ; i < n; i++ {
		dst[i] = max(dst[i], x[i])
	}
}

// MinUnrolled computes dst[i] = min(dst[i], x[i]) with 8-wide unrolling.
func MinUnrolled(dst, x []float32) {
	n := len(dst)
	if len(x) != n {
		panic("tensor: min length mismatch")
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		dst[i] = min(dst[i], x[i])
		dst[i+1] = min(dst[i+1], x[i+1])
		dst[i+2] = min(dst[i+2], x[i+2])
		dst[i+3] = min(dst[i+3], x[i+3])
		dst[i+4] = min(dst[i+4], x[i+4])
		dst[i+5] = min(dst[i+5], x[i+5])
		dst[i+6] = min(dst[i+6], x[i+6])
		dst[i+7] = min(dst[i+7], x[i+7])
	}
	for ; i < n; i++ {
		dst[i] = min(dst[i], x[i])
	}
}

// MaxScalarLoop is the naive one-element counterpart of MaxUnrolled, kept
// for emulating non-SIMD systems and the SIMD ablation bench.
func MaxScalarLoop(dst, x []float32) {
	if len(x) != len(dst) {
		panic("tensor: max length mismatch")
	}
	for i := 0; i < len(dst); i++ {
		dst[i] = max(dst[i], x[i])
	}
}

// MinScalarLoop is the naive counterpart of MinUnrolled.
func MinScalarLoop(dst, x []float32) {
	if len(x) != len(dst) {
		panic("tensor: min length mismatch")
	}
	for i := 0; i < len(dst); i++ {
		dst[i] = min(dst[i], x[i])
	}
}

// maxReplaces reports whether folding x into a max accumulator holding d
// changes the accumulator — the exact replace condition of the builtin max,
// spelled so the common case (keep d) costs one predictable compare. Exported
// kernels inline this shape rather than calling it; it is kept as the
// executable specification the property tests check against.
func maxReplaces(d, x float32) bool {
	if x > d {
		return true
	}
	if x != x { // x is NaN: captures the element unless d already is
		return d == d
	}
	// -0 orders below +0 even though they compare equal.
	return x == 0 && d == 0 && math.Signbit(float64(d)) && !math.Signbit(float64(x))
}

// minReplaces is the mirror condition for min accumulators.
func minReplaces(d, x float32) bool {
	if x < d {
		return true
	}
	if x != x {
		return d == d
	}
	return x == 0 && d == 0 && math.Signbit(float64(x)) && !math.Signbit(float64(d))
}

// MaxArgUnrolled folds x into the max accumulator dst, recording tag in arg
// for every element x captures. Replacement matches the builtin max exactly
// (see maxReplaces), so first occurrence wins ties and the values agree
// bitwise with MaxUnrolled folds.
func MaxArgUnrolled(dst []float32, arg []int32, x []float32, tag int32) {
	n := len(dst)
	if len(x) != n || len(arg) != n {
		panic("tensor: max-arg length mismatch")
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		maxArg1(dst, arg, x, tag, i)
		maxArg1(dst, arg, x, tag, i+1)
		maxArg1(dst, arg, x, tag, i+2)
		maxArg1(dst, arg, x, tag, i+3)
	}
	for ; i < n; i++ {
		maxArg1(dst, arg, x, tag, i)
	}
}

// maxArg1 records tag for element i exactly when the builtin fold would
// change its value, and stores the builtin max itself — so the tracked fold
// is bitwise-identical to MaxUnrolled *by construction*, NaN payload
// quieting included. Replacement is detected as "the fold result is bitwise
// distinguishable from the accumulator" (covers >, the first NaN, and +0
// over -0 in one integer compare), guarded by an integer not-NaN test on
// the accumulator so a NaN element — whose payload the builtin may quiet —
// never re-captures its arg. Everything is compare/select shaped (the
// builtin max lowers branchless, the value store is unconditional, the arg
// pick is an integer conditional move), so the loop carries no
// data-dependent branch to mispredict on power-law fold patterns.
func maxArg1(dst []float32, arg []int32, x []float32, tag int32, i int) {
	d := dst[i]
	m := max(d, x[i])
	bm, bd := math.Float32bits(m), math.Float32bits(d)
	rep := bm ^ bd // nonzero iff the fold changed the element
	if bd&0x7fffffff > 0x7f800000 {
		rep = 0 // NaN accumulator: builtin may quiet its payload, never re-capture
	}
	a := arg[i]
	if rep != 0 {
		a = tag
	}
	dst[i], arg[i] = m, a
}

// MinArgUnrolled is the min mirror of MaxArgUnrolled.
func MinArgUnrolled(dst []float32, arg []int32, x []float32, tag int32) {
	n := len(dst)
	if len(x) != n || len(arg) != n {
		panic("tensor: min-arg length mismatch")
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		minArg1(dst, arg, x, tag, i)
		minArg1(dst, arg, x, tag, i+1)
		minArg1(dst, arg, x, tag, i+2)
		minArg1(dst, arg, x, tag, i+3)
	}
	for ; i < n; i++ {
		minArg1(dst, arg, x, tag, i)
	}
}

// minArg1 is the min mirror of maxArg1.
func minArg1(dst []float32, arg []int32, x []float32, tag int32, i int) {
	d := dst[i]
	m := min(d, x[i])
	bm, bd := math.Float32bits(m), math.Float32bits(d)
	rep := bm ^ bd // nonzero iff the fold changed the element
	if bd&0x7fffffff > 0x7f800000 {
		rep = 0 // NaN accumulator: builtin may quiet its payload, never re-capture
	}
	a := arg[i]
	if rep != 0 {
		a = tag
	}
	dst[i], arg[i] = m, a
}

// MaxArgScalarLoop is the naive counterpart of MaxArgUnrolled.
func MaxArgScalarLoop(dst []float32, arg []int32, x []float32, tag int32) {
	n := len(dst)
	if len(x) != n || len(arg) != n {
		panic("tensor: max-arg length mismatch")
	}
	for i := 0; i < n; i++ {
		if maxReplaces(dst[i], x[i]) {
			dst[i], arg[i] = x[i], tag
		}
	}
}

// MinArgScalarLoop is the naive counterpart of MinArgUnrolled.
func MinArgScalarLoop(dst []float32, arg []int32, x []float32, tag int32) {
	n := len(dst)
	if len(x) != n || len(arg) != n {
		panic("tensor: min-arg length mismatch")
	}
	for i := 0; i < n; i++ {
		if minReplaces(dst[i], x[i]) {
			dst[i], arg[i] = x[i], tag
		}
	}
}

// MergeMaxArg merges a private partial max accumulator (x, xargs) into
// (dst, dargs) — the hub-bucket merge step of the degree-bucketed scheduler.
// The strict replace condition preserves first-occurrence ties across
// partials merged in edge order.
func MergeMaxArg(dst []float32, dargs []int32, x []float32, xargs []int32) {
	for i := 0; i < len(dst); i++ {
		if maxReplaces(dst[i], x[i]) {
			dst[i], dargs[i] = x[i], xargs[i]
		}
	}
}

// MergeMinArg is the min mirror of MergeMaxArg.
func MergeMinArg(dst []float32, dargs []int32, x []float32, xargs []int32) {
	for i := 0; i < len(dst); i++ {
		if minReplaces(dst[i], x[i]) {
			dst[i], dargs[i] = x[i], xargs[i]
		}
	}
}

// ScaleUnrolled computes dst[i] *= a.
func ScaleUnrolled(dst []float32, a float32) {
	if n := len(dst); useVec && n >= vecMin {
		scaleVec(&dst[0], n, a)
		return
	}
	scaleScalarLoop(dst, a)
}

// scaleScalarLoop is the plain loop behind ScaleUnrolled.
func scaleScalarLoop(dst []float32, a float32) {
	for i := range dst {
		dst[i] *= a
	}
}

// DotUnrolled returns the dot product of x and y as four partial sums, element
// i into sum i mod 4 (the k mod 4 tail into the first), combined left to
// right. Unlike the elementwise kernels above, the unrolling here *is* the
// rounding order — a plain loop gives different bits — so it stays, and the
// vector MatMulT reproduces it lane for lane.
func DotUnrolled(x, y []float32) float32 {
	n := len(x)
	if len(y) != n {
		panic("tensor: dot length mismatch")
	}
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < n; i++ {
		s0 += x[i] * y[i]
	}
	return s0 + s1 + s2 + s3
}
