package tensor

import (
	"math"
	"testing"
)

// specials are the float32 values whose max/min ordering is subtle: NaN
// (propagates), ±Inf (fold identities), ±0 (+0 orders above -0 even though
// they compare equal), and a few ordinary values for ties.
var specials = []float32{
	float32(math.NaN()), float32(math.Inf(-1)), float32(math.Inf(1)),
	negZero(), 0, 1, -1, 2, 1, // duplicate 1 so ties happen
}

func negZero() float32 { return float32(math.Copysign(0, -1)) }

// eqNaN reports bitwise equality with all NaNs identified (the builtin
// max/min may quiet a NaN payload, which no consumer observes).
func eqNaN(a, b float32) bool {
	if a != a || b != b {
		return a != a && b != b
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

// TestReplaceConditionsMatchBuiltin pins maxReplaces/minReplaces — the
// executable spec of the arg-tracking kernels — to the builtin max/min:
// folding x into d changes the accumulator exactly when the builtin fold
// would produce a value distinguishable from d.
func TestReplaceConditionsMatchBuiltin(t *testing.T) {
	for _, d := range specials {
		for _, x := range specials {
			if got, want := maxReplaces(d, x), !eqNaN(max(d, x), d); got != want {
				t.Errorf("maxReplaces(%v, %v) = %v, builtin implies %v", d, x, got, want)
			}
			if got, want := minReplaces(d, x), !eqNaN(min(d, x), d); got != want {
				t.Errorf("minReplaces(%v, %v) = %v, builtin implies %v", d, x, got, want)
			}
		}
	}
}

// specialRows builds nRows rows of width dim drawn from the special values
// plus a deterministic pseudo-random grid with many exact ties.
func specialRows(nRows, dim int, seed uint64) [][]float32 {
	rng := NewRNG(seed)
	rows := make([][]float32, nRows)
	for i := range rows {
		row := make([]float32, dim)
		for j := range row {
			if rng.Intn(3) == 0 {
				row[j] = specials[rng.Intn(len(specials))]
			} else {
				row[j] = float32(rng.Intn(5) - 2) // coarse grid: frequent ties
			}
		}
		rows[i] = row
	}
	return rows
}

// TestExtremeTieBreaking folds the same sequences of rows through every
// max/argmax execution path — scalar loop, unrolled, arg-tracking scalar and
// unrolled, and the segmented fold + ordered merge of the hub scheduler —
// and requires bitwise-identical values (NaNs identified) and identical
// first-occurrence argmax everywhere, on inputs full of NaN, ±Inf, ±0 and
// exact ties. Empty fold sequences are covered by the scatter tests (empty
// groups produce zero rows).
func TestExtremeTieBreaking(t *testing.T) {
	const dim = 21 // odd: exercises the unrolled kernels' scalar tails
	rows := specialRows(64, dim, 7)

	for _, maxOp := range []bool{true, false} {
		// Reference: element-wise builtin fold with spec-based arg tracking.
		refVal := append([]float32(nil), rows[0]...)
		refArg := make([]int32, dim)
		for i := 1; i < len(rows); i++ {
			for j := 0; j < dim; j++ {
				rep := maxReplaces(refVal[j], rows[i][j])
				if !maxOp {
					rep = minReplaces(refVal[j], rows[i][j])
				}
				if rep {
					refVal[j], refArg[j] = rows[i][j], int32(i)
				}
			}
		}

		fold1 := func(dst []float32, i int) {
			switch {
			case maxOp:
				MaxUnrolled(dst, rows[i])
			default:
				MinUnrolled(dst, rows[i])
			}
		}
		foldScalar := func(dst []float32, i int) {
			if maxOp {
				MaxScalarLoop(dst, rows[i])
			} else {
				MinScalarLoop(dst, rows[i])
			}
		}
		foldArg := func(dst []float32, arg []int32, i int) {
			if maxOp {
				MaxArgUnrolled(dst, arg, rows[i], int32(i))
			} else {
				MinArgUnrolled(dst, arg, rows[i], int32(i))
			}
		}
		foldArgScalar := func(dst []float32, arg []int32, i int) {
			if maxOp {
				MaxArgScalarLoop(dst, arg, rows[i], int32(i))
			} else {
				MinArgScalarLoop(dst, arg, rows[i], int32(i))
			}
		}
		checkVals := func(name string, got []float32) {
			t.Helper()
			for j := range got {
				if !eqNaN(got[j], refVal[j]) {
					t.Fatalf("max=%v %s: value[%d] = %v, want %v", maxOp, name, j, got[j], refVal[j])
				}
			}
		}
		checkArgs := func(name string, got []int32) {
			t.Helper()
			for j := range got {
				if got[j] != refArg[j] {
					t.Fatalf("max=%v %s: arg[%d] = %d, want %d (value %v)", maxOp, name, j, got[j], refArg[j], refVal[j])
				}
			}
		}

		// Unrolled and scalar value-only folds.
		for name, fold := range map[string]func([]float32, int){"unrolled": fold1, "scalar": foldScalar} {
			dst := append([]float32(nil), rows[0]...)
			for i := 1; i < len(rows); i++ {
				fold(dst, i)
			}
			checkVals(name, dst)
		}
		// Arg-tracking folds, unrolled and scalar.
		for name, fold := range map[string]func([]float32, []int32, int){"argUnrolled": foldArg, "argScalar": foldArgScalar} {
			dst := append([]float32(nil), rows[0]...)
			arg := make([]int32, dim)
			for i := 1; i < len(rows); i++ {
				fold(dst, arg, i)
			}
			checkVals(name, dst)
			checkArgs(name, arg)
		}

		// Segmented fold + ordered merge (the hub-bucket execution): segment
		// 0 copy-first into the result, later segments fold into ±Inf
		// partials, merged in segment order.
		inf := float32(math.Inf(-1))
		if !maxOp {
			inf = float32(math.Inf(1))
		}
		for _, nseg := range []int{2, 3, 7} {
			dst := append([]float32(nil), rows[0]...)
			arg := make([]int32, dim)
			for k := 0; k < nseg; k++ {
				lo, hi := len(rows)*k/nseg, len(rows)*(k+1)/nseg
				if k == 0 {
					for i := 1; i < hi; i++ {
						foldArg(dst, arg, i)
					}
					continue
				}
				part := make([]float32, dim)
				parg := make([]int32, dim)
				for j := range part {
					part[j] = inf
					parg[j] = -7 // poison: must never be observed
				}
				for i := lo; i < hi; i++ {
					foldArg(part, parg, i)
				}
				if maxOp {
					MergeMaxArg(dst, arg, part, parg)
				} else {
					MergeMinArg(dst, arg, part, parg)
				}
			}
			checkVals("segmented", dst)
			checkArgs("segmented", arg)
			for j := range arg {
				if arg[j] == -7 {
					t.Fatalf("max=%v segmented nseg=%d: poison arg leaked at %d", maxOp, nseg, j)
				}
			}
		}
	}
}
