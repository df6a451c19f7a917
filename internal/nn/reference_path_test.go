package nn

import (
	"testing"

	"repro/internal/tensor"
)

// TestReferencePathSuites reruns the fused-Linear parity suite with tensor's
// vector kernels switched off: the assembly and the Go loops it replaces are
// held to the same three-pass composition in one `go test`.
func TestReferencePathSuites(t *testing.T) {
	if !tensor.SetVectorKernels(true) {
		t.Skip("no vector kernels in this build or on this CPU: the suites already ran on the reference path")
	}
	tensor.SetVectorKernels(false)
	defer tensor.SetVectorKernels(true)
	t.Run("FusedLinearMatchesComposition", TestFusedLinearMatchesComposition)
	t.Run("FusedLinearClosedGateKeepsNonFinite", TestFusedLinearClosedGateKeepsNonFinite)
	t.Run("LinearGradCheck", TestLinearGradCheck)
}
