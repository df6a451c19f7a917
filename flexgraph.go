// Package flexgraph is the public API of FlexGraph-Go, a from-scratch Go
// reproduction of "FlexGraph: A Flexible and Efficient Distributed
// Framework for GNN Training" (EuroSys 2021).
//
// The package re-exports the user-facing pieces of the internal
// implementation:
//
//   - datasets: synthetic generators shaped like the paper's Table 1
//     (Reddit, FB91, Twitter, IMDB);
//   - the NAU programming abstraction (NeighborSelection / Aggregation /
//     Update) and the three evaluated models GCN, PinSage and MAGNN, plus
//     the P-GNN and JK-Net extension models;
//   - the hybrid execution engine (feature fusion, sparse and dense tensor
//     paths) with the SA / SA+FA / HA strategy switch;
//   - single-machine training (Trainer) and the shared-nothing distributed
//     runtime (TrainDistributed / Simulate) with application-driven
//     workload balancing and pipeline processing.
//
// A minimal training run:
//
//	d := flexgraph.RedditLike(flexgraph.DatasetConfig{Scale: 0.1})
//	rng := flexgraph.NewRNG(1)
//	model := flexgraph.NewGCN(d.FeatureDim(), 16, d.NumClasses, rng)
//	tr := flexgraph.NewTrainerWith(model, flexgraph.TrainerOptions{
//		Graph: d.Graph, Features: d.Features,
//		Labels: d.Labels, TrainMask: d.TrainMask, Seed: 1,
//	})
//	for epoch := 0; epoch < 50; epoch++ {
//		loss, err := tr.Epoch()
//		...
//	}
//
// A trained model can then be served online (micro-batched per-vertex
// queries with an embedding cache — see NewInferenceServer).
package flexgraph

import (
	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Core data types.
type (
	// Graph is an immutable directed (optionally heterogeneous) graph.
	Graph = graph.Graph
	// GraphBuilder accumulates edges for a Graph.
	GraphBuilder = graph.Builder
	// VertexID identifies a vertex.
	VertexID = graph.VertexID
	// Metapath is an ordered sequence of vertex types (MAGNN neighbors).
	Metapath = graph.Metapath
	// Tensor is a dense row-major float32 tensor.
	Tensor = tensor.Tensor
	// RNG is the deterministic random generator used everywhere.
	RNG = tensor.RNG
	// Value is an autograd node.
	Value = nn.Value
)

// Dataset types.
type (
	// Dataset bundles a graph with features, labels and a train mask.
	Dataset = dataset.Dataset
	// DatasetConfig scales the synthetic generators.
	DatasetConfig = dataset.Config
)

// NAU abstraction types.
type (
	// Model is a stack of NAU layers.
	Model = nau.Model
	// Layer is one GNN layer in the NAU abstraction.
	Layer = nau.Layer
	// LayerContext is passed to a layer's Aggregation stage.
	LayerContext = nau.Context
	// NeighborUDF customises neighbor selection (the paper's nbr_udf).
	NeighborUDF = nau.NeighborUDF
	// SchemaTree encodes a model's neighbor types.
	SchemaTree = hdg.SchemaTree
	// HDG is a set of hierarchical dependency graphs.
	HDG = hdg.HDG
	// HDGRecord is one neighbor instance produced by a UDF.
	HDGRecord = hdg.Record
	// Trainer runs single-machine whole-graph training.
	Trainer = nau.Trainer
	// StageBreakdown accumulates per-stage timings.
	StageBreakdown = metrics.Breakdown
)

// Execution engine types.
type (
	// Engine executes hierarchical aggregation under a strategy.
	Engine = engine.Engine
	// Strategy selects the hybrid-execution level (SA, SA+FA, HA).
	Strategy = engine.Strategy
)

// SetKernelParallelism caps the worker count used by the tensor and engine
// kernels (n <= 0 restores GOMAXPROCS). It is the one kernel setting: the
// worker pool, the edge-balanced split, the degree-bucketed scheduler and
// the buffer free list are how the kernels run, not options (DESIGN.md
// "Kernel execution").
var SetKernelParallelism = tensor.SetParallelism

// Hybrid execution strategies (the paper's Fig. 14 ablation).
const (
	StrategySA   = engine.StrategySA
	StrategySAFA = engine.StrategySAFA
	StrategyHA   = engine.StrategyHA
)

// Distributed runtime types.
type (
	// ClusterConfig configures distributed training.
	ClusterConfig = cluster.Config
	// ClusterResult reports a distributed run.
	ClusterResult = cluster.Result
	// ModelFactory builds identical model replicas per worker.
	ModelFactory = cluster.ModelFactory
	// SimConfig configures a simulated multi-machine epoch.
	SimConfig = cluster.SimConfig
	// SimResult reports a simulated epoch.
	SimResult = cluster.SimResult
	// Partitioning assigns vertices to workers.
	Partitioning = partition.Partitioning
	// PinSageConfig holds PinSage's random-walk parameters.
	PinSageConfig = models.PinSageConfig
	// MAGNNConfig bounds MAGNN's metapath search.
	MAGNNConfig = models.MAGNNConfig
	// MiniBatchConfig switches distributed training to mini-batch rounds
	// with a prefetching sampler (ClusterConfig.MiniBatch).
	MiniBatchConfig = cluster.MiniBatchConfig
	// ClusterCheckpointConfig enables fenced cluster snapshots
	// (ClusterConfig.Checkpoint): all ranks barrier at the epoch boundary
	// and rank 0 persists one consistent training state.
	ClusterCheckpointConfig = cluster.CheckpointConfig
)

// Data-plane types: the store interfaces decouple *what* the trainer reads
// (topology queries, feature rows) from *where* it lives (in-memory shard
// or a remote rank), and the Sampler turns them into a prefetched stream of
// self-contained training batches.
type (
	// GraphStore serves topology and neighbor-selection queries. Since
	// PR 17 InEdges hands each destination's neighbor list to a visit
	// callback instead of returning [][]VertexID; implementations outside
	// this module need the new signature.
	GraphStore = store.GraphStore
	// FeatureStore serves vertex feature/label/mask slices.
	FeatureStore = store.FeatureStore
	// LocalStore implements both stores in memory over a Graph.
	LocalStore = store.Local
	// LocalStoreConfig configures NewLocalStore.
	LocalStoreConfig = store.LocalConfig
	// RemoteStore speaks the store protocol to a peer rank with a
	// pipelined request window.
	RemoteStore = store.Remote
	// RemoteStoreOptions configures NewRemoteStore.
	RemoteStoreOptions = store.RemoteOptions
	// StoreServer answers store requests over a transport from a backing
	// local store.
	StoreServer = store.Server
	// StoreServerOptions configures NewStoreServer.
	StoreServerOptions = store.ServerOptions
	// Sampler materialises training batches through the stores, optionally
	// prefetching ahead of the trainer.
	Sampler = store.Sampler
	// SamplerOptions configures NewSampler.
	SamplerOptions = store.SamplerOptions
	// SamplerStream delivers one epoch's batches in schedule order.
	SamplerStream = store.Stream
	// SampleBatch is one self-contained materialised training batch.
	SampleBatch = store.Batch
	// SampleLayerPlan is one model layer's share of a materialised batch.
	SampleLayerPlan = store.LayerPlan
	// FetchError is a typed store failure naming the operation and the
	// vertex count in flight; match with errors.As.
	FetchError = store.FetchError
)

// Data-plane constructors.
var (
	// NewLocalStore builds an in-memory store over a graph and features.
	NewLocalStore = store.NewLocal
	// NewRemoteStore builds a pipelined remote store over a transport.
	NewRemoteStore = store.NewRemote
	// NewStoreServer serves a local store to remote ranks.
	NewStoreServer = store.NewServer
	// NewSampler builds a prefetching batch sampler over the given stores.
	NewSampler = store.NewSampler
	// ForwardBatch runs a NAU model over a layered batch with autograd
	// intact, returning one logits row per batch root.
	ForwardBatch = store.Forward
)

// MsgClass indexes the per-kind traffic counters on a StageBreakdown.
type MsgClass = metrics.MsgClass

// Fail-fast runtime errors. Distributed training with
// ClusterConfig.RecvTimeout set never hangs on a dead peer: a missed
// deadline is a *TimeoutError naming the fence and the missing ranks, a
// peer's broadcast failure is an *AbortError, and protocol violations are
// *FenceError / *OverflowError / *DuplicateError. Match with errors.As.
type (
	// TimeoutError reports a collective receive deadline that expired,
	// naming the fence and the ranks never heard from.
	TimeoutError = collective.TimeoutError
	// AbortError reports that a peer's epoch failed and the cluster tore
	// down (fail-fast abort propagation).
	AbortError = collective.AbortError
	// FenceError reports a message from an epoch behind the current fence.
	FenceError = collective.FenceError
	// OverflowError reports a diverged cluster overflowing the mailbox.
	OverflowError = collective.OverflowError
	// DuplicateError reports two messages from one sender at one fence.
	DuplicateError = collective.DuplicateError
)

const (
	// DefaultRingChunk is the default all-reduce segment size in float32
	// words (ClusterConfig.RingChunk overrides it).
	DefaultRingChunk = collective.DefaultRingChunk

	// Traffic classes for StageBreakdown.SentBytes / RecvBytes.
	TrafficFeatures = metrics.ClassFeatures
	TrafficPartials = metrics.ClassPartials
	TrafficGrads    = metrics.ClassGrads
	TrafficBarrier  = metrics.ClassBarrier
	TrafficPlan     = metrics.ClassPlan
	TrafficAbort    = metrics.ClassAbort
	TrafficSample   = metrics.ClassSample
)

// NewRNG returns a deterministic random generator.
func NewRNG(seed uint64) *RNG { return tensor.NewRNG(seed) }

// NewGraphBuilder returns a builder for a graph with n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// Dataset generators (Table 1 shapes).
var (
	// RedditLike generates the dense Reddit-shaped dataset.
	RedditLike = dataset.RedditLike
	// FB91Like generates the power-law LDBC-FB91-shaped dataset.
	FB91Like = dataset.FB91Like
	// TwitterLike generates the power-law Twitter-shaped dataset.
	TwitterLike = dataset.TwitterLike
	// IMDBLike generates the heterogeneous IMDB-shaped dataset.
	IMDBLike = dataset.IMDBLike
	// DatasetByName returns a generator output by Table-1 name.
	DatasetByName = dataset.ByName
)

// Model constructors.
var (
	// NewGCN builds the 2-layer GCN (DNFA).
	NewGCN = models.NewGCN
	// NewPinSage builds the 2-layer PinSage (INFA).
	NewPinSage = models.NewPinSage
	// NewMAGNN builds the 2-layer MAGNN (INHA).
	NewMAGNN = models.NewMAGNN
	// NewPGNN builds the 2-layer P-GNN extension model.
	NewPGNN = models.NewPGNN
	// NewJKNet builds the 2-layer JK-Net extension model.
	NewJKNet = models.NewJKNet
	// DefaultPinSageConfig returns the paper's §7 walk parameters.
	DefaultPinSageConfig = models.DefaultPinSageConfig
)

// Training entry points.
var (
	// NewEngine builds an execution engine with the given strategy.
	NewEngine = engine.New
	// TrainDistributed runs data-parallel training over an in-process
	// loopback cluster.
	TrainDistributed = cluster.Train
	// Simulate runs one simulated multi-machine epoch (Fig. 13/15).
	Simulate = cluster.SimulateEpoch
	// NewSimulation builds reusable multi-epoch simulation state.
	NewSimulation = cluster.NewSimulation
)

// Partitioners (§5/§6).
var (
	// HashPartition assigns vertex v to part v mod k.
	HashPartition = partition.Hash
	// LabelPropPartition is the PuLP-style partitioner.
	LabelPropPartition = partition.LabelProp
	// DefaultADB returns the application-driven balancer with the §6
	// configuration.
	DefaultADB = partition.DefaultADB
)

// Optimizers.
type (
	// Optimizer updates parameters from accumulated gradients.
	Optimizer = nn.Optimizer
	// StatefulOptimizer is an Optimizer whose internal state (step counter,
	// moment buffers) can be captured and restored for resume-correct
	// checkpointing.
	StatefulOptimizer = nn.StatefulOptimizer
	// OptState is a snapshot of an optimizer's kind, hyperparameters and
	// internal state.
	OptState = nn.OptState
)

// Optimizer constructors, for callers that want to replace a Trainer's
// default Adam(lr=0.01).
var (
	// NewAdam returns an Adam optimizer over params.
	NewAdam = nn.NewAdam
	// NewSGD returns a plain SGD optimizer over params.
	NewSGD = nn.NewSGD
)

// Additional DNFA model constructors (§2.2 names GIN and G-GCN alongside
// GCN) and checkpointing (the Fig. 12 fault-tolerance module).
var (
	// NewGIN builds the 2-layer Graph Isomorphism Network (DNFA).
	NewGIN = models.NewGIN
	// NewGGCN builds the 2-layer gated GCN (DNFA).
	NewGGCN = models.NewGGCN
	// SaveCheckpoint writes model parameters to a file atomically.
	SaveCheckpoint = nn.SaveCheckpoint
	// LoadCheckpoint restores model parameters from a file.
	LoadCheckpoint = nn.LoadCheckpoint
	// SaveTrainingState writes a full v2 checkpoint (params + optimizer +
	// epoch + RNG) to a file atomically.
	SaveTrainingState = nn.SaveStateFile
	// LoadTrainingState restores a full checkpoint written by
	// SaveTrainingState; legacy v1 files restore weights only.
	LoadTrainingState = nn.LoadStateFile
	// LoadDataset reads a serialised dataset (.fgds) from a file.
	LoadDataset = dataset.Load
)

// Checkpoint state and typed load errors.
type (
	// TrainState bundles everything a v2 checkpoint carries.
	TrainState = nn.TrainState
	// CheckpointFormatError reports a structurally invalid checkpoint
	// (bad magic, unknown version, truncation, trailing bytes).
	CheckpointFormatError = nn.FormatError
	// CheckpointMismatchError reports a checkpoint that is well-formed but
	// does not match the receiver (optimizer kind, parameter count, shape).
	CheckpointMismatchError = nn.MismatchError
)

// Level-wise aggregation (the paper's Fig. 6 driver).
type (
	// LevelUDF is one HDG level's aggregation function.
	LevelUDF = nau.LevelUDF
)

// Built-in level UDFs for Context.Aggregate.
var (
	// AggSum reduces a level by summation.
	AggSum = nau.Sum
	// AggMean reduces a level by averaging.
	AggMean = nau.Mean
	// AggMax reduces a level by elementwise max.
	AggMax = nau.Max
	// AggMin reduces a level by elementwise min.
	AggMin = nau.Min
)

// Reusable neighbor-selection UDFs (the paper's Fig. 5 library).
var (
	// OneHopUDF selects every 1-hop out-neighbor (gnn_nbr).
	OneHopUDF = nau.OneHopUDF
	// RandomWalkUDF selects the top-k visited vertices over random walks
	// (pinsage_nbr).
	RandomWalkUDF = nau.RandomWalkUDF
	// MetapathUDF selects metapath instances (magnn_nbr).
	MetapathUDF = nau.MetapathUDF
	// AnchorSetUDF selects pre-sampled anchor sets (P-GNN).
	AnchorSetUDF = nau.AnchorSetUDF
	// HopFrontierUDF selects per-hop BFS frontiers (JK-Net).
	HopFrontierUDF = nau.HopFrontierUDF
	// NewSchemaTree builds a schema tree from neighbor type names.
	NewSchemaTree = hdg.NewSchemaTree
)

// Observability: structured tracing, the metrics registry and live worker
// introspection. All hooks are nil-safe — an unconfigured run pays ~1 ns
// per instrumentation site — so commands and examples can thread a Tracer
// and MetricsRegistry through ClusterConfig (or Trainer.Tracer) without
// importing internal packages.
type (
	// Tracer records rank-tagged spans into a fixed-size lock-free ring.
	Tracer = trace.Tracer
	// TraceSpan is one recorded span (rank, epoch, phase, category, name).
	TraceSpan = trace.Span
	// TraceRegion is an in-flight span returned by Tracer.Begin.
	TraceRegion = trace.Region
	// MetricsRegistry names counters, gauges and latency histograms.
	MetricsRegistry = metrics.Registry
	// MetricCounter is a monotonically increasing counter.
	MetricCounter = metrics.Counter
	// MetricGauge is a last-value float metric.
	MetricGauge = metrics.Gauge
	// MetricHistogram is a log-bucketed latency histogram.
	MetricHistogram = metrics.Histogram
	// BalanceReport is the per-epoch Fig. 14-style per-rank stage table
	// assembled inside the gradient-sync fence.
	BalanceReport = metrics.BalanceReport
	// MetricsSnapshot is a full-fidelity copy of a registry (raw histogram
	// buckets), mergeable into another registry via MergeSnapshot.
	MetricsSnapshot = metrics.RegistrySnapshot
	// TelemetryConfig turns on the cluster telemetry plane in
	// ClusterConfig: epoch-fenced snapshot pushes to rank 0, clock
	// alignment, and the crash flight recorder.
	TelemetryConfig = cluster.TelemetryConfig
	// TelemetryCollector is rank 0's merge point: skew-corrected spans and
	// summed metrics from every rank, plus HTTP handlers for the
	// cluster-wide views.
	TelemetryCollector = telemetry.Collector
	// FlightDump is one rank's crash record (span tail, metrics snapshot,
	// goroutine stacks) — the flight-<rank>.json format.
	FlightDump = telemetry.FlightDump
)

// Span categories on TraceSpan.Cat (timeline lanes in the Chrome export).
const (
	TraceCatEpoch  = trace.CatEpoch
	TraceCatStage  = trace.CatStage
	TraceCatFence  = trace.CatFence
	TraceCatComm   = trace.CatComm
	TraceCatSample = trace.CatSample
)

var (
	// NewTracer allocates a span ring (capacity rounded up to a power of
	// two; <= 0 selects the default). A nil *Tracer is a valid no-op.
	NewTracer = trace.New
	// NewMetricsRegistry returns an empty metrics registry. A nil
	// *MetricsRegistry hands out nil (no-op) instruments.
	NewMetricsRegistry = metrics.NewRegistry
	// WriteChromeTrace writes spans as Chrome trace-event JSON
	// (chrome://tracing / Perfetto), one process per rank.
	WriteChromeTrace = trace.WriteChromeTrace
	// WriteTraceJSONL writes spans as one JSON object per line.
	WriteTraceJSONL = trace.WriteJSONL
	// ServeDebug serves /metrics, /trace, expvar and pprof on addr and
	// returns the bound address plus a shutdown func.
	ServeDebug = trace.ServeDebug
	// DebugMux builds the introspection handler without binding it, so a
	// process can mount extra routes (rank 0 adds the collector's
	// /metrics/cluster and /trace/cluster) before or after serving.
	DebugMux = trace.DebugMux
	// ServeMux serves an arbitrary handler with ServeDebug's contract.
	ServeMux = trace.ServeMux
	// ReadFlightFile parses a flight-<rank>.json crash dump.
	ReadFlightFile = telemetry.ReadFlightFile
	// FlightWorthy reports whether an error should trigger flight dumps.
	FlightWorthy = telemetry.FlightWorthy
	// SetGrainHistogram observes every engine aggregation grain's duration
	// into h (nil detaches).
	SetGrainHistogram = engine.SetGrainHistogram
)

// NN building blocks for custom layers.
type (
	// Linear is a fully connected layer.
	Linear = nn.Linear
	// CachePolicy controls when NeighborSelection re-runs.
	CachePolicy = nau.CachePolicy
)

// HDG cache policies (§3.2's Discussion).
const (
	// CachePerEpoch rebuilds HDGs every epoch (PinSage).
	CachePerEpoch = nau.CachePerEpoch
	// CacheForever builds HDGs once per training run (MAGNN).
	CacheForever = nau.CacheForever
)

// Differentiable operations for custom Update rules.
var (
	// NewLinear returns a Xavier-initialised fully connected layer.
	NewLinear = nn.NewLinear
	// ConcatValues concatenates values along the feature dimension.
	ConcatValues = nn.Concat
	// ReLUValue applies max(x, 0).
	ReLUValue = nn.ReLU
	// AddValues adds two values (with bias-row broadcasting).
	AddValues = nn.Add
	// MatMulValues multiplies two values.
	MatMulValues = nn.MatMul
)
