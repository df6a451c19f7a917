package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(3, 4)
	if x.Rows() != 3 || x.Cols() != 4 || x.Len() != 12 {
		t.Fatalf("shape accessors wrong: rows=%d cols=%d len=%d", x.Rows(), x.Cols(), x.Len())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestFromSliceAliases(t *testing.T) {
	buf := []float32{1, 2, 3, 4}
	x := FromSlice(buf, 2, 2)
	buf[0] = 9
	if x.At(0, 0) != 9 {
		t.Fatal("FromSlice must alias, not copy")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer expectPanic(t, "FromSlice with wrong length")
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSet(t *testing.T) {
	x := New(2, 3)
	x.Set(7, 1, 2)
	if x.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v, want 7", x.At(1, 2))
	}
	if x.Data()[5] != 7 {
		t.Fatal("row-major layout violated")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer expectPanic(t, "out-of-range index")
	New(2, 2).At(2, 0)
}

func TestReshapeView(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	if y.At(2, 1) != 6 {
		t.Fatalf("reshape order wrong: %v", y)
	}
	y.Set(100, 0, 0)
	if x.At(0, 0) != 100 {
		t.Fatal("Reshape must return a view, not a copy")
	}
}

func TestReshapeInfer(t *testing.T) {
	x := New(4, 6)
	y := x.Reshape(2, -1)
	if y.Dim(1) != 12 {
		t.Fatalf("inferred dim = %d, want 12", y.Dim(1))
	}
	z := x.Reshape(-1, 3, 2)
	if z.Dim(0) != 4 {
		t.Fatalf("inferred leading dim = %d, want 4", z.Dim(0))
	}
}

func TestReshapeBadCountPanics(t *testing.T) {
	defer expectPanic(t, "reshape changing element count")
	New(2, 3).Reshape(4, 2)
}

func TestCloneIndependent(t *testing.T) {
	x := Ones(2, 2)
	y := x.Clone()
	y.Set(5, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestAddAndBroadcast(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	y := FromSlice([]float32{10, 20, 30, 40}, 2, 2)
	z := x.Add(y)
	want := FromSlice([]float32{11, 22, 33, 44}, 2, 2)
	if !z.ApproxEqual(want, 0) {
		t.Fatalf("Add = %v", z)
	}
	// Row-vector broadcast.
	b := FromSlice([]float32{100, 200}, 1, 2)
	z2 := x.Add(b)
	want2 := FromSlice([]float32{101, 202, 103, 204}, 2, 2)
	if !z2.ApproxEqual(want2, 0) {
		t.Fatalf("broadcast Add = %v", z2)
	}
}

func TestSubMulScale(t *testing.T) {
	x := FromSlice([]float32{4, 6}, 1, 2)
	y := FromSlice([]float32{1, 2}, 1, 2)
	if got := x.Sub(y); !got.ApproxEqual(FromSlice([]float32{3, 4}, 1, 2), 0) {
		t.Fatalf("Sub = %v", got)
	}
	if got := x.Mul(y); !got.ApproxEqual(FromSlice([]float32{4, 12}, 1, 2), 0) {
		t.Fatalf("Mul = %v", got)
	}
	if got := x.Scale(0.5); !got.ApproxEqual(FromSlice([]float32{2, 3}, 1, 2), 0) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestReLUAndMask(t *testing.T) {
	x := FromSlice([]float32{-1, 0, 2}, 1, 3)
	if got := x.ReLU(); !got.ApproxEqual(FromSlice([]float32{0, 0, 2}, 1, 3), 0) {
		t.Fatalf("ReLU = %v", got)
	}
	if got := x.ReLUMask(); !got.ApproxEqual(FromSlice([]float32{0, 0, 1}, 1, 3), 0) {
		t.Fatalf("ReLUMask = %v", got)
	}
}

func TestSoftmaxRows(t *testing.T) {
	x := FromSlice([]float32{1, 1, 1, 1000, 1000, 1000}, 2, 3)
	s := x.SoftmaxRows(nil)
	for r := 0; r < 2; r++ {
		var sum float32
		for c := 0; c < 3; c++ {
			v := s.At(r, c)
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("softmax not stable: %v", v)
			}
			sum += v
		}
		if math.Abs(float64(sum-1)) > 1e-5 {
			t.Fatalf("row %d sums to %v", r, sum)
		}
	}
}

func TestConcatSplit(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6}, 2, 1)
	c := Concat(a, b)
	want := FromSlice([]float32{1, 2, 5, 3, 4, 6}, 2, 3)
	if !c.ApproxEqual(want, 0) {
		t.Fatalf("Concat = %v", c)
	}
	if l, r := c.SliceCols(0, 2), c.SliceCols(2, 1); !l.ApproxEqual(a, 0) || !r.ApproxEqual(b, 0) {
		t.Fatalf("SliceCols did not invert Concat: %v %v", l, r)
	}
}

func TestMatMul(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	got := a.MatMul(b)
	want := FromSlice([]float32{58, 64, 139, 154}, 2, 2)
	if !got.ApproxEqual(want, 1e-4) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulVariantsAgree(t *testing.T) {
	rng := NewRNG(42)
	a := RandN(rng, 1, 7, 5)
	b := RandN(rng, 1, 5, 6)
	ref := a.MatMul(b)
	if got := a.MatMulT(b.Transpose2D()); !got.ApproxEqual(ref, 1e-4) {
		t.Fatal("MatMulT disagrees with MatMul")
	}
	if got := a.Transpose2D().TMatMul(b); !got.ApproxEqual(ref, 1e-4) {
		t.Fatal("TMatMul disagrees with MatMul")
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "MatMul shape mismatch")
	New(2, 3).MatMul(New(2, 3))
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	at := a.Transpose2D()
	if at.Dim(0) != 3 || at.Dim(1) != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("Transpose2D = %v", at)
	}
}

func TestSumReductions(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	if x.Sum() != 10 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Mean() != 2.5 {
		t.Fatalf("Mean = %v", x.Mean())
	}
	if got := x.SumRows(); !got.ApproxEqual(FromSlice([]float32{4, 6}, 1, 2), 0) {
		t.Fatalf("SumRows = %v", got)
	}
}

func TestReduceMiddle(t *testing.T) {
	// [2 roots, 3 groups, 2 dims]
	x := FromSlice([]float32{
		1, 2, 3, 4, 5, 6,
		-1, -2, -3, -4, -5, -6,
	}, 2, 3, 2)
	sum := x.ReduceMiddle(ReduceSum)
	if !sum.ApproxEqual(FromSlice([]float32{9, 12, -9, -12}, 2, 2), 1e-6) {
		t.Fatalf("ReduceMiddle sum = %v", sum)
	}
	mean := x.ReduceMiddle(ReduceMean)
	if !mean.ApproxEqual(FromSlice([]float32{3, 4, -3, -4}, 2, 2), 1e-6) {
		t.Fatalf("ReduceMiddle mean = %v", mean)
	}
	max := x.ReduceMiddle(ReduceMax)
	if !max.ApproxEqual(FromSlice([]float32{5, 6, -1, -2}, 2, 2), 1e-6) {
		t.Fatalf("ReduceMiddle max = %v", max)
	}
	min := x.ReduceMiddle(ReduceMin)
	if !min.ApproxEqual(FromSlice([]float32{1, 2, -5, -6}, 2, 2), 1e-6) {
		t.Fatalf("ReduceMiddle min = %v", min)
	}
}

func TestApproxEqual(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 1, 2)
	b := FromSlice([]float32{1.0005, 2}, 1, 2)
	if !a.ApproxEqual(b, 1e-2) {
		t.Fatal("should be approx equal at 1e-2")
	}
	if a.ApproxEqual(b, 1e-5) {
		t.Fatal("should not be approx equal at 1e-5")
	}
	if a.ApproxEqual(FromSlice([]float32{1, 2}, 2, 1), 1) {
		t.Fatal("different shapes must not compare equal")
	}
}

// Property: (A+B)+C == A+(B+C) within float tolerance and Add is
// commutative.
func TestAddPropertyQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		a := RandN(rng, 1, 4, 5)
		b := RandN(rng, 1, 4, 5)
		c := RandN(rng, 1, 4, 5)
		l := a.Add(b).Add(c)
		r := a.Add(b.Add(c))
		return l.ApproxEqual(r, 1e-4) && a.Add(b).ApproxEqual(b.Add(a), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A(B+C) == AB + AC.
func TestMatMulDistributesQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		a := RandN(rng, 1, 3, 4)
		b := RandN(rng, 1, 4, 5)
		c := RandN(rng, 1, 4, 5)
		l := a.MatMul(b.Add(c))
		r := a.MatMul(b).Add(a.MatMul(c))
		return l.ApproxEqual(r, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("expected panic: %s", what)
	}
}

// Property: softmax rows are a probability distribution for any input.
func TestSoftmaxRowsPropertyQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		x := RandN(rng, 5, r, c)
		s := x.SoftmaxRows(nil)
		for i := 0; i < r; i++ {
			var sum float64
			for j := 0; j < c; j++ {
				v := float64(s.At(i, j))
				if v < 0 || v > 1 || math.IsNaN(v) {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Transpose2D is an involution and SliceCols inverts Concat.
func TestTransposeAndSplitQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		x := RandN(rng, 1, r, c)
		if !x.Transpose2D().Transpose2D().ApproxEqual(x, 0) {
			return false
		}
		y := RandN(rng, 1, r, 1+rng.Intn(4))
		joined := Concat(x, y)
		return joined.SliceCols(0, c).ApproxEqual(x, 0) && joined.SliceCols(c, y.Dim(1)).ApproxEqual(y, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSigmoidTanhRanges(t *testing.T) {
	x := FromSlice([]float32{-100, -1, 0, 1, 100}, 1, 5)
	s := x.Sigmoid()
	for i := 0; i < 5; i++ {
		if v := s.At(0, i); v < 0 || v > 1 {
			t.Fatalf("sigmoid out of range: %v", v)
		}
	}
	if s.At(0, 2) != 0.5 {
		t.Fatalf("sigmoid(0) = %v", s.At(0, 2))
	}
	th := x.Tanh()
	for i := 0; i < 5; i++ {
		if v := th.At(0, i); v < -1 || v > 1 {
			t.Fatalf("tanh out of range: %v", v)
		}
	}
}

func TestFullAndFillAndString(t *testing.T) {
	x := Full(3, 2, 2)
	if x.At(1, 1) != 3 {
		t.Fatal("Full wrong")
	}
	x.Fill(7)
	if x.Sum() != 28 {
		t.Fatal("Fill wrong")
	}
	if s := x.String(); s == "" {
		t.Fatal("String empty")
	}
	big := New(100, 100)
	if s := big.String(); s != "Tensor[100 100]" {
		t.Fatalf("big String = %q", s)
	}
	if x.NumBytes() != 16 {
		t.Fatalf("NumBytes = %d", x.NumBytes())
	}
}

func TestCopyFromAndAddScaled(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 1, 2)
	b := New(1, 2)
	b.CopyFrom(a)
	if !b.ApproxEqual(a, 0) {
		t.Fatal("CopyFrom wrong")
	}
	b.AddScaledInPlace(a, 2)
	if b.At(0, 1) != 6 {
		t.Fatalf("AddScaled = %v", b)
	}
}

// At and Set take a variadic index; it must stay on the caller's stack. (It
// used to escape through the out-of-range panic's fmt call: one allocation
// per element access, 4 200 per epoch in the loss alone.)
func TestAtSetDoNotAllocate(t *testing.T) {
	x := New(4, 4)
	if n := testing.AllocsPerRun(100, func() { x.Set(x.At(1, 2)+1, 2, 3) }); n != 0 {
		t.Fatalf("At+Set allocate %v objects per call", n)
	}
}
