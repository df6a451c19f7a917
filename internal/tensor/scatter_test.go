package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGather(t *testing.T) {
	src := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2)
	out := Gather(src, []int32{2, 0, 2})
	want := FromSlice([]float32{5, 6, 1, 2, 5, 6}, 3, 2)
	if !out.ApproxEqual(want, 0) {
		t.Fatalf("Gather = %v", out)
	}
}

func TestScatterAddFig8(t *testing.T) {
	// The example of the paper's Fig. 8: values [30,20,60,30,30,40,50,70]
	// with dst indices [0,0,0,1,0,1,...] producing sums per destination.
	vals := FromSlice([]float32{30, 20, 60, 30, 30, 40, 50, 70}, 8, 1)
	idx := []int32{0, 0, 0, 1, 0, 1, 2, 2}
	out := ScatterAdd(vals, idx, 3)
	want := FromSlice([]float32{140, 70, 120}, 3, 1)
	if !out.ApproxEqual(want, 0) {
		t.Fatalf("ScatterAdd = %v, want %v", out, want)
	}
}

func TestScatterMean(t *testing.T) {
	vals := FromSlice([]float32{2, 4, 6}, 3, 1)
	out := ScatterMean(vals, []int32{0, 0, 1}, 3)
	want := FromSlice([]float32{3, 6, 0}, 3, 1)
	if !out.ApproxEqual(want, 0) {
		t.Fatalf("ScatterMean = %v (empty group must be zero)", out)
	}
}

func TestScatterIndexOutOfRangePanics(t *testing.T) {
	defer expectPanic(t, "scatter index out of range")
	ScatterAdd(Ones(2, 1), []int32{0, 5}, 2)
}

func TestScatterSoftmax(t *testing.T) {
	vals := FromSlice([]float32{1, 2, 3}, 3, 1)
	idx := []int32{0, 0, 1}
	out := ScatterSoftmax(vals, idx, 2)
	// Group 0: softmax(1,2); group 1: singleton -> 1.
	e1, e2 := math.Exp(1), math.Exp(2)
	want0 := float32(e1 / (e1 + e2))
	want1 := float32(e2 / (e1 + e2))
	if math.Abs(float64(out.At(0, 0)-want0)) > 1e-5 ||
		math.Abs(float64(out.At(1, 0)-want1)) > 1e-5 ||
		math.Abs(float64(out.At(2, 0)-1)) > 1e-5 {
		t.Fatalf("ScatterSoftmax = %v", out)
	}
}

func TestScatterSoftmaxStability(t *testing.T) {
	vals := FromSlice([]float32{1000, 1001}, 2, 1)
	out := ScatterSoftmax(vals, []int32{0, 0}, 1)
	s := out.At(0, 0) + out.At(1, 0)
	if math.IsNaN(float64(s)) || math.Abs(float64(s-1)) > 1e-5 {
		t.Fatalf("ScatterSoftmax unstable: %v", out)
	}
}

func TestScatterCounts(t *testing.T) {
	got := ScatterCounts([]int32{0, 0, 2}, 3)
	if got[0] != 2 || got[1] != 0 || got[2] != 1 {
		t.Fatalf("ScatterCounts = %v", got)
	}
}

// Property: ScatterAdd preserves the total sum of values.
func TestScatterAddPreservesSumQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 1 + rng.Intn(50)
		out := 1 + rng.Intn(10)
		vals := RandN(rng, 1, n, 3)
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(rng.Intn(out))
		}
		res := ScatterAdd(vals, idx, out)
		return math.Abs(float64(res.Sum()-vals.Sum())) < 1e-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Gather then ScatterAdd with identity mapping is identity.
func TestGatherScatterRoundTripQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 1 + rng.Intn(20)
		src := RandN(rng, 1, n, 4)
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		return ScatterAdd(Gather(src, idx), idx, n).ApproxEqual(src, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSIMDKernelsMatchScalar(t *testing.T) {
	rng := NewRNG(7)
	for _, n := range []int{0, 1, 7, 8, 9, 31, 64, 100} {
		x := make([]float32, n)
		d1 := make([]float32, n)
		d2 := make([]float32, n)
		for i := range x {
			x[i] = rng.NormFloat32()
			d1[i] = rng.NormFloat32()
			d2[i] = d1[i]
		}
		AddUnrolled(d1, x)
		addScalarLoop(d2, x)
		for i := range d1 {
			if d1[i] != d2[i] {
				t.Fatalf("n=%d AddUnrolled[%d]=%v scalar=%v", n, i, d1[i], d2[i])
			}
		}
		// Dot: compare against plain accumulation loosely (different
		// accumulation order changes rounding).
		var ref float64
		for i := range x {
			ref += float64(x[i]) * float64(d1[i])
		}
		got := DotUnrolled(x, d1)
		if math.Abs(float64(got)-ref) > 1e-2*(1+math.Abs(ref)) {
			t.Fatalf("n=%d DotUnrolled=%v ref=%v", n, got, ref)
		}
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(1), NewRNG(1)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds should differ")
	}
}

func TestRNGPerm(t *testing.T) {
	p := NewRNG(3).Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGFloat32Range(t *testing.T) {
	rng := NewRNG(11)
	for i := 0; i < 1000; i++ {
		v := rng.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32 out of range: %v", v)
		}
	}
}
