package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// replacesSpec is the replace condition of the builtin max/min fold (see
// tensor/simd.go): x captures the accumulator d when it is strictly better,
// when it is the first NaN, or when +0 displaces -0 (max) / -0 displaces +0
// (min).
func replacesSpec(d, x float32, max bool) bool {
	if x != x {
		return d == d
	}
	if max {
		if x > d {
			return true
		}
		return x == 0 && d == 0 && math.Signbit(float64(d)) && !math.Signbit(float64(x))
	}
	if x < d {
		return true
	}
	return x == 0 && d == 0 && math.Signbit(float64(x)) && !math.Signbit(float64(d))
}

// TestScatterExtremeArgTieBreaking pins scatterExtremeWithArg to the
// brute-force spec on inputs with NaN, ±Inf, -0 and many exact ties: first
// occurrence wins every tie, and empty groups return zero values and arg -1.
func TestScatterExtremeArgTieBreaking(t *testing.T) {
	rng := tensor.NewRNG(5)
	const nRows, dim, numOut = 80, 24, 11 // groups 4 and 9 stay empty
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(-1)), float32(math.Inf(1)),
		float32(math.Copysign(0, -1)),
	}
	values := tensor.NewUninit(nRows, dim)
	vd := values.Data()
	for i := range vd {
		if rng.Intn(11) == 0 {
			vd[i] = specials[rng.Intn(len(specials))]
		} else {
			vd[i] = float32(rng.Intn(5) - 2)
		}
	}
	index := make([]int32, nRows)
	for i := range index {
		for {
			index[i] = int32(rng.Intn(numOut))
			if index[i] != 4 && index[i] != 9 {
				break
			}
		}
	}

	eqNaN := func(a, b float32) bool {
		if a != a || b != b {
			return a != a && b != b
		}
		return math.Float32bits(a) == math.Float32bits(b)
	}

	for _, max := range []bool{true, false} {
		// Brute-force reference straight from the spec.
		refVal := make([]float32, numOut*dim)
		refArg := make([]int32, numOut*dim)
		for i := range refArg {
			refArg[i] = -1
		}
		for i, dst := range index {
			base := int(dst) * dim
			for j := 0; j < dim; j++ {
				if refArg[base+j] < 0 || replacesSpec(refVal[base+j], vd[i*dim+j], max) {
					refVal[base+j] = vd[i*dim+j]
					refArg[base+j] = int32(i)
				}
			}
		}

		out, arg := scatterExtremeWithArg(values, index, numOut, max)
		od := out.Data()
		for i := range od {
			if arg[i] != refArg[i] {
				t.Fatalf("max=%v: arg[%d] = %d, want %d", max, i, arg[i], refArg[i])
			}
			if !eqNaN(od[i], refVal[i]) {
				t.Fatalf("max=%v: value[%d] = %v, want %v", max, i, od[i], refVal[i])
			}
		}
		for _, empty := range []int{4, 9} {
			for j := 0; j < dim; j++ {
				if od[empty*dim+j] != 0 || arg[empty*dim+j] != -1 {
					t.Fatalf("max=%v: empty group %d col %d = (%v, %d), want (0, -1)",
						max, empty, j, od[empty*dim+j], arg[empty*dim+j])
				}
			}
		}
	}
}
