package tensor

// The reference loops of the arithmetic kernels in simd.go: what runs where
// the vector path does not (see simd.go), and what the parity tests and the
// fuzz target hold the assembly to, bit for bit.

func axpyRef(dst, x []float32, a float32) {
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		dst[i] += a * x[i]
		dst[i+1] += a * x[i+1]
		dst[i+2] += a * x[i+2]
		dst[i+3] += a * x[i+3]
		dst[i+4] += a * x[i+4]
		dst[i+5] += a * x[i+5]
		dst[i+6] += a * x[i+6]
		dst[i+7] += a * x[i+7]
	}
	for ; i < n; i++ {
		dst[i] += a * x[i]
	}
}

func addRef(dst, x []float32) {
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		dst[i] += x[i]
		dst[i+1] += x[i+1]
		dst[i+2] += x[i+2]
		dst[i+3] += x[i+3]
		dst[i+4] += x[i+4]
		dst[i+5] += x[i+5]
		dst[i+6] += x[i+6]
		dst[i+7] += x[i+7]
	}
	for ; i < n; i++ {
		dst[i] += x[i]
	}
}

func scaleRef(dst []float32, a float32) {
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		dst[i] *= a
		dst[i+1] *= a
		dst[i+2] *= a
		dst[i+3] *= a
		dst[i+4] *= a
		dst[i+5] *= a
		dst[i+6] *= a
		dst[i+7] *= a
	}
	for ; i < n; i++ {
		dst[i] *= a
	}
}
