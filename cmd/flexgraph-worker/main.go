// Command flexgraph-worker is one worker of a real multi-process FlexGraph
// cluster over TCP. Start one process per rank with the same flags:
//
//	flexgraph-worker -rank 0 -addrs 127.0.0.1:7000,127.0.0.1:7001 -model gcn
//	flexgraph-worker -rank 1 -addrs 127.0.0.1:7000,127.0.0.1:7001 -model gcn
//
// Every process generates the same synthetic dataset deterministically
// (seeded), partitions it by hash, and trains data-parallel with partial
// aggregation + pipeline processing, exchanging length-prefixed binary
// feature messages over the mesh.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	flexgraph "repro"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nau"
	"repro/internal/rpc"
	"repro/internal/tensor"
)

func main() {
	rank := flag.Int("rank", 0, "this worker's rank")
	addrList := flag.String("addrs", "127.0.0.1:7000,127.0.0.1:7001", "comma-separated worker addresses, in rank order")
	datasetName := flag.String("dataset", "reddit", "dataset: reddit, fb91, twitter or imdb")
	scale := flag.Float64("scale", 0.25, "dataset scale factor")
	modelName := flag.String("model", "gcn", "model: gcn, pinsage or magnn")
	epochs := flag.Int("epochs", 5, "training epochs")
	hidden := flag.Int("hidden", 16, "hidden width")
	pipeline := flag.Bool("pipeline", true, "enable partial aggregation + pipeline processing")
	batch := flag.Int("batch", 0,
		"mini-batch size: > 0 switches from whole-graph epochs to mini-batch rounds over each worker's partition, materialised by the store sampler (0 = whole-graph)")
	prefetch := flag.Int("prefetch", 2,
		"sampler prefetch depth in mini-batch mode: how many materialised batches may queue ahead of training (0 = sample synchronously)")
	samplers := flag.Int("samplers", 2,
		"concurrent sampler workers in mini-batch mode, independent of the trainer's kernel parallelism")
	seed := flag.Uint64("seed", 1, "random seed (must match across workers)")
	lr := flag.Float64("lr", 0.01, "Adam learning rate (must match across workers)")
	checkpoint := flag.String("checkpoint", "",
		"persist the full training state (params + optimizer + epoch) to this path at epoch boundaries: all ranks fence, rank 0 writes one consistent snapshot atomically ('' disables; the path only needs to exist on rank 0's filesystem)")
	checkpointEvery := flag.Int("checkpoint-every", 1, "epochs between cluster checkpoints")
	resume := flag.String("resume", "",
		"resume from this checkpoint before the startup barrier: every rank restores params/optimizer/epoch so epoch numbering and sampling seeds continue where the snapshot left off; -epochs counts ADDITIONAL epochs ('' starts fresh)")
	dialRetries := flag.Int("dial-retries", 0, "mesh dial attempts per peer (0 = default)")
	dialBackoff := flag.Duration("dial-backoff", 0, "initial mesh dial retry delay (0 = default)")
	recvTimeout := flag.Duration("recv-timeout", 30*time.Second,
		"collective receive deadline: a dead or wedged peer surfaces as a typed timeout naming the missing ranks instead of hanging the cluster (0 disables)")
	debugAddr := flag.String("debug-addr", "",
		"serve live introspection on this address: /metrics (text; ?format=json), /trace (JSONL), /trace/chrome, /debug/vars, /debug/pprof ('' disables)")
	traceOut := flag.String("trace-out", "",
		"write this worker's span timeline as Chrome trace-event JSON to this file at exit — load it in Perfetto or chrome://tracing ('' disables)")
	traceCap := flag.Int("trace-cap", 0,
		"span ring capacity, rounded up to a power of two (0 = default; oldest spans are overwritten when full)")
	telemetry := flag.Bool("telemetry", false,
		"enable the cluster telemetry plane: every rank pushes epoch-fenced span/metrics snapshots to rank 0, which aligns per-rank clocks via an RTT handshake and serves the merged view at /metrics/cluster and /trace/cluster; with -trace-out, rank 0 writes the skew-corrected cluster-wide Perfetto timeline instead of a local one")
	telemetryEvery := flag.Int("telemetry-every", 1, "epochs between telemetry snapshot pushes")
	flightDir := flag.String("flight-dir", "",
		"flight recorder directory: on an abort, timeout or crash, every surviving rank dumps its last spans, metrics and goroutine stacks to <dir>/flight-<rank>.json; merge dumps offline with flexgraph-trace ('' disables)")
	flag.Parse()

	addrs := strings.Split(*addrList, ",")
	if *rank < 0 || *rank >= len(addrs) {
		log.Fatalf("rank %d out of range for %d addresses", *rank, len(addrs))
	}

	d, err := dataset.ByName(*datasetName, dataset.Config{Scale: *scale, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	var factory cluster.ModelFactory
	switch *modelName {
	case "gcn":
		factory = func(rng *tensor.RNG) *nau.Model {
			return models.NewGCN(d.FeatureDim(), *hidden, d.NumClasses, rng)
		}
	case "pinsage":
		factory = func(rng *tensor.RNG) *nau.Model {
			return models.NewPinSage(d.FeatureDim(), *hidden, d.NumClasses, models.DefaultPinSageConfig(), rng)
		}
	case "magnn":
		factory = func(rng *tensor.RNG) *nau.Model {
			return models.NewMAGNN(d.FeatureDim(), *hidden, d.NumClasses, d.Metapaths, models.MAGNNConfig{MaxInstances: 4}, rng)
		}
	default:
		log.Fatalf("unknown model %q", *modelName)
	}

	// Observability: the tracer and registry are nil-safe throughout the
	// stack, so both stay nil (≈1 ns per instrumentation site) unless a
	// flag asks for them. Everything goes through the public flexgraph
	// re-exports — commands never import internal/trace.
	var tracer *flexgraph.Tracer
	if *traceOut != "" || *debugAddr != "" || *telemetry || *flightDir != "" {
		tracer = flexgraph.NewTracer(*traceCap)
	}
	var reg *flexgraph.MetricsRegistry
	if *debugAddr != "" || *traceOut != "" || *telemetry || *flightDir != "" {
		reg = flexgraph.NewMetricsRegistry()
		flexgraph.SetGrainHistogram(reg.Histogram("engine.grain_ns"))
	}
	// The mux outlives this block so rank 0's telemetry collector can mount
	// /metrics/cluster and /trace/cluster on it once training starts
	// (ServeMux registration is locked, so late Handle calls are safe).
	debugMux := flexgraph.DebugMux(tracer, reg)
	if *debugAddr != "" {
		bound, shutdown, err := flexgraph.ServeMux(*debugAddr, debugMux)
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		defer shutdown()
		log.Printf("worker %d debug server on http://%s (/metrics /trace /debug/pprof)", *rank, bound)
	}

	tr, err := rpc.NewTCPTransport(*rank, addrs)
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()
	if *dialRetries > 0 {
		tr.DialAttempts = *dialRetries
	}
	if *dialBackoff > 0 {
		tr.DialBackoff = *dialBackoff
	}
	// Attach metrics before Connect so mesh dial retries are counted too
	// (newWorker would wire them, but only after the mesh is up).
	tr.SetMetrics(reg)
	log.Printf("worker %d listening on %s, connecting mesh of %d", *rank, tr.Addr(), len(addrs))
	if err := tr.Connect(); err != nil {
		log.Fatalf("mesh connect: %v", err)
	}

	var mb *cluster.MiniBatchConfig
	if *batch > 0 {
		mb = &cluster.MiniBatchConfig{
			BatchSize:      *batch,
			PrefetchDepth:  *prefetch,
			SamplerWorkers: *samplers,
		}
	}
	var ck *cluster.CheckpointConfig
	if *checkpoint != "" {
		ck = &cluster.CheckpointConfig{Path: *checkpoint, Every: *checkpointEvery}
	}
	// Telemetry plane: rank 0 collects every rank's spans and metrics; the
	// merged skew-corrected timeline replaces rank 0's local -trace-out and
	// the cluster-wide view is mounted on the debug mux as it comes up.
	var tc *cluster.TelemetryConfig
	mergedOut := ""
	if *telemetry || *flightDir != "" {
		if *telemetry && *rank == 0 {
			mergedOut = *traceOut
		}
		tc = &cluster.TelemetryConfig{
			Every:       *telemetryEvery,
			FlightDir:   *flightDir,
			MergedTrace: mergedOut,
			OnCollector: func(col *flexgraph.TelemetryCollector) {
				debugMux.Handle("/metrics/cluster", col.MetricsHandler())
				debugMux.Handle("/trace/cluster", col.TraceHandler())
			},
		}
	}
	cfg := cluster.Config{
		NumWorkers:   len(addrs),
		Pipeline:     *pipeline,
		Epochs:       *epochs,
		Seed:         *seed,
		RecvTimeout:  *recvTimeout,
		Tracer:       tracer,
		Metrics:      reg,
		MiniBatch:    mb,
		LearningRate: float32(*lr),
		Checkpoint:   ck,
		Resume:       *resume,
		Telemetry:    tc,
		OnEpoch: func(epoch int, loss float32, balance *flexgraph.BalanceReport) {
			// Rank 0 prints the Fig. 14-style per-rank stage table each
			// epoch: every rank's stage seconds ride the gradient fence,
			// so the straggler view needs no extra collective round.
			if balance != nil {
				fmt.Print(balance)
			}
		},
	}
	start := time.Now()
	losses, breakdown, err := cluster.RunWorker(cfg, d, factory, tr)
	if err != nil {
		log.Fatal(err)
	}
	for i, l := range losses {
		log.Printf("epoch %d global loss %.4f", i+1, l)
	}
	fmt.Printf("worker %d done in %v: sent %d messages, %d bytes\n",
		*rank, time.Since(start).Round(time.Millisecond),
		breakdown.MessagesSent.Load(), breakdown.BytesSent.Load())
	fmt.Print(breakdown.TrafficTable())
	switch {
	case mergedOut != "":
		// RunWorker already wrote the merged cluster timeline there.
		log.Printf("worker %d wrote the merged cluster trace to %s — open in Perfetto (ui.perfetto.dev) or chrome://tracing", *rank, mergedOut)
	case *traceOut != "":
		if err := tracer.WriteChromeTraceFile(*traceOut); err != nil {
			log.Fatalf("trace-out: %v", err)
		}
		log.Printf("worker %d wrote %d spans to %s (dropped %d) — open in Perfetto (ui.perfetto.dev) or chrome://tracing",
			*rank, tracer.Len(), *traceOut, tracer.Dropped())
	}
}
