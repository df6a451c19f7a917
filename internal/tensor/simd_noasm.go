//go:build !amd64 || purego

package tensor

// No assembly in this build: useVec is a constant, so the compiler deletes
// the vector branch of every kernel and the stubs below are never called.
const useVec = false

// SetVectorKernels cannot turn on what this build does not have.
func SetVectorKernels(bool) bool { return false }

func axpyVec(dst, x *float32, n int, a float32) { panic("tensor: no vector kernels") }
func addVec(dst, x *float32, n int)             { panic("tensor: no vector kernels") }
func scaleVec(dst *float32, n int, a float32)   { panic("tensor: no vector kernels") }

func matmulRowVec(dst, t, o, bias *float32, k, n, ts, os int, acc, relu bool) {
	panic("tensor: no vector kernels")
}

func matmulTRowVec(dst, x, ot *float32, k, n int) { panic("tensor: no vector kernels") }

func sumRowsVec(dst, src *float32, idx *int32, m, n, stride int, zero bool) {
	panic("tensor: no vector kernels")
}

func sumRowsScaledVec(dst, src *float32, idx *int32, scale *float32, m, n, stride int, zero bool) {
	panic("tensor: no vector kernels")
}

func dotRowsVec(dst, rows, x *float32, m, k int) { panic("tensor: no vector kernels") }
