package flexgraph

import (
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/tensor"
)

// KernelConfig gathers the kernel execution levers behind one struct, so a
// caller configures the whole hot path in a single Apply instead of four
// global setter calls (SetKernelParallelism, SetWorkerPool, SetBufferPooling,
// SetEdgeBalancedSplit — all retained as wrappers for existing code). Start
// from DefaultKernelConfig, flip the fields under test, and Apply:
//
//	cfg := flexgraph.DefaultKernelConfig()
//	cfg.BufferPooling = false // ablate the buffer free list
//	cfg.Apply()
//
// The fields map 1:1 onto the global toggles, which remain process-wide: an
// Apply affects every engine and trainer in the process.
type KernelConfig struct {
	// Parallelism caps the worker count of the tensor and engine kernels;
	// <= 0 selects runtime.GOMAXPROCS(0).
	Parallelism int
	// WorkerPool runs parallel loops on the persistent worker pool instead
	// of spawning goroutines per call.
	WorkerPool bool
	// BufferPooling recycles tensor buffers through size-classed free lists
	// instead of plain allocations.
	BufferPooling bool
	// EdgeBalancedSplit partitions fused-aggregation work by edge count
	// rather than destination count.
	EdgeBalancedSplit bool
	// HubDegree is the minimum in-degree at which the bucketed scheduler
	// treats a destination as a hub (edge-parallel split with private
	// partial accumulators). <= 0 disables degree bucketing entirely.
	HubDegree int
	// LeafDegree is the maximum in-degree of a leaf destination
	// (vertex-parallel batches, no merge overhead). Clamped below
	// HubDegree.
	LeafDegree int
	// FeatureTile is the column tile width, in float32 columns, of the
	// feature-dim-tiled aggregation kernels; kernels tile once the feature
	// width reaches 2x this value. <= 0 disables tiling — the default,
	// because tiling measured as a loss at every feature dim on the bench
	// machine's cache hierarchy (see internal/tensor/tile.go); the lever
	// exists for small-cache targets.
	FeatureTile int
}

// DefaultKernelConfig returns the process's current kernel configuration —
// after init, every lever on with Parallelism = GOMAXPROCS, except
// FeatureTile which defaults to 0 (off; see that field's comment).
func DefaultKernelConfig() KernelConfig {
	hub, leaf := engine.DegreeBuckets()
	return KernelConfig{
		Parallelism:       tensor.Parallelism(),
		WorkerPool:        tensor.WorkerPoolEnabled(),
		BufferPooling:     tensor.BufferPooling(),
		EdgeBalancedSplit: engine.EdgeBalancedSplit(),
		HubDegree:         hub,
		LeafDegree:        leaf,
		FeatureTile:       tensor.FeatureTile(),
	}
}

// Apply installs the configuration process-wide. Safe to call at any time;
// kernels pick up the new settings on their next invocation.
func (c KernelConfig) Apply() {
	tensor.SetParallelism(c.Parallelism)
	tensor.SetWorkerPool(c.WorkerPool)
	tensor.SetBufferPooling(c.BufferPooling)
	engine.SetEdgeBalancedSplit(c.EdgeBalancedSplit)
	engine.SetDegreeBuckets(c.HubDegree, c.LeafDegree)
	tensor.SetFeatureTile(c.FeatureTile)
}

// PipelineConfig is KernelConfig's data-plane sibling: where KernelConfig
// tunes how compute kernels run, PipelineConfig tunes how training data
// reaches them — batch granularity, how far the sampler prefetches ahead of
// the trainer, how many sampler goroutines materialise batches, and how
// many requests a remote store keeps in flight. Unlike KernelConfig it is
// not process-global: pass it where a pipeline is built (e.g. via
// MiniBatch to ClusterConfig.MiniBatch, or field-by-field into
// SamplerOptions / RemoteStoreOptions).
type PipelineConfig struct {
	// BatchSize is the number of target vertices per mini-batch round.
	BatchSize int
	// PrefetchDepth is how many materialised batches may queue ready ahead
	// of the trainer; 0 samples synchronously inside the training loop.
	PrefetchDepth int
	// SamplerWorkers is the number of concurrent sampler goroutines
	// materialising batches (<= 0 selects 1), independent of the trainer's
	// kernel parallelism.
	SamplerWorkers int
	// RequestWindow bounds a remote store's in-flight requests (<= 0
	// selects the default window).
	RequestWindow int
}

// DefaultPipelineConfig returns the defaults the data plane would pick on
// its own: 128-vertex batches, prefetch depth 2 with 2 sampler workers, and
// the remote store's default request window.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{
		BatchSize:      128,
		PrefetchDepth:  2,
		SamplerWorkers: 2,
		RequestWindow:  store.DefaultRequestWindow,
	}
}

// MiniBatch converts the pipeline configuration into the cluster's
// mini-batch mode config, for ClusterConfig.MiniBatch.
func (c PipelineConfig) MiniBatch() *MiniBatchConfig {
	return &MiniBatchConfig{
		BatchSize:      c.BatchSize,
		PrefetchDepth:  c.PrefetchDepth,
		SamplerWorkers: c.SamplerWorkers,
	}
}
