package engine

import (
	"testing"

	"repro/internal/tensor"
)

// TestReferencePathSuites reruns the suites that pin the aggregation kernels'
// arithmetic — the bucket scheduler's bit-exactness, the strategy sweep, the
// segment oracle — with tensor's vector kernels switched off, so one `go test`
// holds the assembly and the Go loops it replaces to the same oracles.
func TestReferencePathSuites(t *testing.T) {
	if !tensor.SetVectorKernels(true) {
		t.Skip("no vector kernels in this build or on this CPU: the suites already ran on the reference path")
	}
	tensor.SetVectorKernels(false)
	defer tensor.SetVectorKernels(true)
	t.Run("BucketedFusedBitExact", TestBucketedFusedBitExact)
	t.Run("StrategiesAgreeUnderAllKernelConfigs", TestStrategiesAgreeUnderAllKernelConfigs)
	t.Run("FusedMultiEdgeGradients", TestFusedMultiEdgeGradients)
	t.Run("SegmentSoftmaxWeightedMatchesScatterComposition", TestSegmentSoftmaxWeightedMatchesScatterComposition)
	t.Run("SegmentAttentionMatchesComposition", TestSegmentAttentionMatchesComposition)
	t.Run("SegmentReduceMatchesScatter", TestSegmentReduceMatchesScatter)
}
