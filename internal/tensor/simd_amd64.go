//go:build amd64 && !purego

package tensor

// useVec selects the AVX2 kernels of simd_amd64.s; probed once.
var useVec = cpuHasAVX2()

// SetVectorKernels(false) routes every kernel through the reference loops
// (simd.go, matmul.go) on a CPU that would run the assembly — the parity
// tests' way to run one suite on both paths in one process, like
// SetBufferPooling. It reports whether the vector path is now on.
func SetVectorKernels(on bool) bool {
	useVec = on && cpuHasAVX2()
	return useVec
}

func cpuHasAVX2() bool

//go:noescape
func axpyVec(dst, x *float32, n int, a float32)

//go:noescape
func addVec(dst, x *float32, n int)

//go:noescape
func scaleVec(dst *float32, n int, a float32)

//go:noescape
func matmulRowVec(dst, t, o, bias *float32, k, n, ts, os int, acc, relu bool)

//go:noescape
func matmulTRowVec(dst, x, ot *float32, k, n int)

//go:noescape
func sumRowsVec(dst, src *float32, idx *int32, m, n, stride int, zero bool)

//go:noescape
func sumRowsScaledVec(dst, src *float32, idx *int32, scale *float32, m, n, stride int, zero bool)

//go:noescape
func dotRowsVec(dst, rows, x *float32, m, k int)
