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
//     runtime (TrainDistributed) with application-driven workload balancing
//     and pipeline processing.
//
// The surface is what examples/, cmd/ and the README quick-starts call, plus
// the type aliases needed to name what those calls take and return
// (TestEveryExportHasACaller holds it there). Everything else lives in the
// internal packages; the README's migration table maps each removed name.
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
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Core data types.
type (
	// Graph is an immutable directed (optionally heterogeneous) graph.
	Graph = graph.Graph
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

// NewRNG returns a deterministic random generator.
func NewRNG(seed uint64) *RNG { return tensor.NewRNG(seed) }

// Dataset generators (Table 1 shapes).
var (
	// RedditLike generates the dense Reddit-shaped dataset.
	RedditLike = dataset.RedditLike
	// FB91Like generates the power-law LDBC-FB91-shaped dataset.
	FB91Like = dataset.FB91Like
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
	// NewGIN builds the 2-layer Graph Isomorphism Network (DNFA).
	NewGIN = models.NewGIN
	// NewGGCN builds the 2-layer gated GCN (DNFA).
	NewGGCN = models.NewGGCN
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
)

// Partitioners (§5/§6).
var (
	// HashPartition assigns vertex v to part v mod k.
	HashPartition = partition.Hash
	// DefaultADB returns the application-driven balancer with the §6
	// configuration.
	DefaultADB = partition.DefaultADB
)

// Persistence. Trainer.SaveCheckpoint and ClusterConfig.Checkpoint write the
// v2 training state (the Fig. 12 fault-tolerance module).
var (
	// LoadCheckpoint restores model parameters from a checkpoint file (v2,
	// or legacy weights-only v1).
	LoadCheckpoint = nn.LoadCheckpoint
	// LoadDataset reads a serialised dataset (.fgds) from a file.
	LoadDataset = dataset.Load
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
)

// Reusable neighbor-selection UDFs (the paper's Fig. 5 library).
var (
	// RandomWalkUDF selects the top-k visited vertices over random walks
	// (pinsage_nbr).
	RandomWalkUDF = nau.RandomWalkUDF
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
	// MetricsRegistry names counters, gauges and latency histograms.
	MetricsRegistry = metrics.Registry
	// MetricHistogram is a log-bucketed latency histogram.
	MetricHistogram = metrics.Histogram
	// BalanceReport is the per-epoch Fig. 14-style per-rank stage table
	// assembled inside the gradient-sync fence.
	BalanceReport = metrics.BalanceReport
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
	// DebugMux builds the introspection handler without binding it, so a
	// process can mount extra routes (rank 0 adds the collector's
	// /metrics/cluster and /trace/cluster) before or after serving.
	DebugMux = trace.DebugMux
	// ServeMux serves a handler on addr and returns the bound address plus
	// a shutdown func.
	ServeMux = trace.ServeMux
	// ReadFlightFile parses a flight-<rank>.json crash dump.
	ReadFlightFile = telemetry.ReadFlightFile
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
)
