package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/collective"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/rpc"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Config controls a distributed training run.
type Config struct {
	// NumWorkers is the number of shared-nothing workers (the paper's k).
	NumWorkers int
	// Pipeline enables partial aggregation + compute/communication overlap
	// (§5); when false, raw feature rows are exchanged in one batched
	// message per peer and aggregation waits for all of them.
	Pipeline bool
	// Partitioning assigns vertices to workers; nil selects Hash.
	Partitioning *partition.Partitioning
	// Epochs is the number of training epochs.
	Epochs int
	// Seed drives model init and neighbor selection.
	Seed uint64
	// RecvTimeout bounds how long any collective receive waits for peers
	// (0 waits forever). With a bound, a dead or wedged peer surfaces as a
	// typed *collective.TimeoutError naming the fence and the missing
	// ranks, instead of hanging the epoch; the detecting worker then
	// broadcasts an abort so every survivor fails fast.
	RecvTimeout time.Duration
	// Tracer records rank-tagged epoch/stage/fence spans (nil = off). In
	// an in-process Train cluster all workers share the ring; with
	// RunWorker each process owns its own tracer.
	Tracer *trace.Tracer
	// Metrics registers hot-path counters, gauges and histograms (fence
	// waits, rpc latency, epoch loss and wall-clock) on the given registry
	// (nil = off).
	Metrics *metrics.Registry
	// OnEpoch, when non-nil, runs on rank 0 after every epoch with the
	// global loss and the per-rank workload-balance report assembled
	// inside the gradient-sync fence — the Fig. 14-style straggler table.
	OnEpoch func(epoch int, loss float32, balance *metrics.BalanceReport)
	// MiniBatch, when non-nil, switches every worker from whole-graph
	// epochs to mini-batch rounds over its partition, with batches
	// materialised by a store.Sampler so sampling/feature gathering can
	// prefetch ahead of training (sampler and trainer concurrency are
	// configured independently).
	MiniBatch *MiniBatchConfig
	// LearningRate sets every replica's Adam learning rate (0 keeps the
	// historical default of 0.01).
	LearningRate float32
	// Checkpoint, when non-nil, persists the complete training state
	// (params + optimizer + epoch + RNG) at epoch boundaries: all ranks
	// fence on a barrier, then rank 0 — whose replica is bit-identical to
	// every other after the gradient all-reduce — writes one consistent
	// snapshot atomically. Resuming from it restores the optimizer
	// trajectory, epoch numbering and hence the per-(epoch, vertex)
	// sampling seeds.
	Checkpoint *CheckpointConfig
	// Resume, when non-empty, restores params/optimizer/epoch on every
	// rank from this checkpoint path before the startup barrier, so the
	// run continues exactly where the snapshot left off. Epochs then
	// counts ADDITIONAL epochs to run. Legacy v1 checkpoints resume
	// weights only (epoch numbering restarts at 0).
	Resume string
	// Telemetry, when non-nil, enables the cluster telemetry plane: each
	// rank pushes epoch-fenced span/metrics snapshots to a rank-0
	// collector (with a clock-offset handshake so the merged Perfetto
	// timeline is skew-corrected), and on cluster death every survivor's
	// flight recorder dumps its final state to FlightDir. Requires
	// Config.Tracer and Config.Metrics for a useful cluster view; both
	// halves degrade gracefully when either is nil.
	Telemetry *TelemetryConfig

	// sharedObs marks an in-process Train cluster, where every worker
	// records into the one Config.Tracer/Config.Metrics: snapshot pushes
	// then skip their payload (the collector already sees everything) and
	// clock sync is skipped (one clock).
	sharedObs bool
}

// TelemetryConfig configures the cluster telemetry plane (see
// internal/telemetry).
type TelemetryConfig struct {
	// Every is the number of epochs between snapshot pushes to the rank-0
	// collector (<= 0 selects 1).
	Every int
	// FlightDir receives flight-<rank>.json when the cluster dies of an
	// abort/timeout/crash ("" disables the flight recorder).
	FlightDir string
	// MergedTrace is the path rank 0 writes the merged, skew-corrected
	// cluster Chrome trace to — on success at run end, and on failure
	// after folding in whatever flight dumps arrived ("" disables).
	MergedTrace string
	// OnCollector, when non-nil, runs on rank 0 once the collector
	// exists — the hook cmd/flexgraph-worker uses to mount
	// /metrics/cluster and /trace/cluster on its debug mux.
	OnCollector func(*telemetry.Collector)
}

// CheckpointConfig configures the cluster's fenced epoch-boundary
// snapshots (the paper's Fig. 12 fault-tolerance module).
type CheckpointConfig struct {
	// Path is where rank 0 writes the snapshot (atomic rename, fsynced).
	Path string
	// Every is the number of epochs between snapshots (<= 0 selects 1).
	Every int
}

// MiniBatchConfig configures the cluster's mini-batch training mode. Each
// worker chops its partition into BatchSize chunks and runs one gradient
// round per chunk; workers whose partitions are smaller than the largest
// one pad with empty rounds (zero gradients, zero loss weight) so every
// rank joins every collective and the replicas stay identical.
type MiniBatchConfig struct {
	// BatchSize is the number of target vertices per round (default 128).
	BatchSize int
	// PrefetchDepth is the store sampler's prefetch depth: how many
	// materialised batches may queue ahead of training. 0 runs sampling
	// synchronously inside the round loop.
	PrefetchDepth int
	// SamplerWorkers is the number of concurrent sampler goroutines
	// materialising batches when PrefetchDepth > 0 (<= 0 selects 1),
	// independent of the trainer's kernel parallelism.
	SamplerWorkers int
}

// ModelFactory builds a fresh model replica; it is called once per worker
// with identically seeded RNGs so replicas start out equal.
type ModelFactory func(rng *tensor.RNG) *nau.Model

// Result reports a distributed training run.
type Result struct {
	// Losses holds the global training loss per epoch.
	Losses []float32
	// EpochTimes holds rank 0's wall-clock time per epoch, its checkpoint
	// and telemetry fences included. Ranks run their epochs on their own,
	// meeting only in collectives, so another rank's epochs start and end
	// at other times.
	EpochTimes []time.Duration
	// PerWorker holds each worker's stage breakdown.
	PerWorker []*metrics.Breakdown
	// Merged aggregates all workers' breakdowns.
	Merged *metrics.Breakdown
	// Balance holds rank 0's per-epoch workload-balance reports, assembled
	// inside the gradient-sync fence (per-rank stage seconds, max/mean skew,
	// CV).
	Balance []*metrics.BalanceReport
}

// Train runs cfg.Epochs of data-parallel training over an in-process
// loopback cluster and returns the per-epoch global losses: it builds all k
// workers, then runs each one's per-rank program — the one RunWorker runs —
// on its own goroutine. A failed run reports its root cause: the first
// non-abort error in rank order.
func Train(cfg Config, d *dataset.Dataset, factory ModelFactory) (*Result, error) {
	if cfg.NumWorkers <= 0 {
		return nil, fmt.Errorf("cluster: NumWorkers must be positive")
	}
	netw := rpc.NewLoopbackNetwork(cfg.NumWorkers)
	defer netw.Close()

	// In-process workers share one tracer and one registry, so telemetry
	// pushes skip their payload and the collector reads the shared state
	// directly.
	cfg.sharedObs = true
	workers := make([]*worker, cfg.NumWorkers)
	for rank := range workers {
		w, err := newWorker(rank, cfg, d, factory, netw.Transport(rank))
		if err != nil {
			return nil, err
		}
		workers[rank] = w
	}

	errs := make([]error, cfg.NumWorkers)
	var wg sync.WaitGroup
	for rank, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[rank] = w.run()
		}()
	}
	wg.Wait()
	if err := firstEpochError(errs); err != nil {
		return nil, err
	}

	w0 := workers[0]
	res := &Result{
		Losses:     w0.losses,
		EpochTimes: w0.epochTimes,
		Balance:    w0.balances,
		PerWorker:  make([]*metrics.Breakdown, cfg.NumWorkers),
		Merged:     &metrics.Breakdown{},
	}
	for rank, w := range workers {
		res.PerWorker[rank] = w.breakdown
		res.Merged.Merge(w.breakdown)
	}
	return res, nil
}

// RunWorker runs one worker of a multi-process cluster over an external
// transport (e.g. rpc.TCPTransport). Every process must call it with the
// same Config, dataset and factory; the transport's rank selects the
// partition. It returns the per-epoch global losses and this worker's
// stage breakdown.
//
// Failure is fail-fast: when an epoch errors (including a typed
// *collective.TimeoutError from a dead peer under Config.RecvTimeout), the
// worker broadcasts an abort to its peers and closes the transport, so every
// survivor returns a typed *collective.AbortError instead of hanging.
func RunWorker(cfg Config, d *dataset.Dataset, factory ModelFactory, tr rpc.Transport) ([]float32, *metrics.Breakdown, error) {
	w, err := newWorker(tr.Rank(), cfg, d, factory, tr)
	if err != nil {
		return nil, nil, err
	}
	if err := w.run(); err != nil {
		return nil, nil, err
	}
	return w.losses, w.breakdown, nil
}

// run is one rank's whole program, the same for RunWorker and every rank of
// Train: the startup barrier, cfg.Epochs epochs (at least one) recording
// each epoch's global loss, wall-clock time and balance report, and the
// merged-trace write. On failure it tears the rank down — abort broadcast,
// flight recorder, transport close — and returns the error.
func (w *worker) run() error {
	// Fence the mesh before the first epoch: every worker must be connected
	// and ready before the first plan exchange, and a broken link surfaces
	// here as a barrier error rather than a mid-epoch hang. The fence epoch
	// is the (possibly resumed) starting epoch so a restarted cluster's
	// barrier never collides with checkpoint fences it ran before crashing.
	if err := w.comm.Barrier(collective.Fence{Epoch: w.epoch(), Phase: 0}); err != nil {
		return w.fail(fmt.Errorf("cluster: worker %d startup barrier: %w", w.rank, err))
	}
	for range max(w.cfg.Epochs, 1) {
		start := time.Now()
		loss, err := w.runEpoch()
		if err != nil {
			return w.fail(fmt.Errorf("cluster: worker %d epoch %d: %w", w.rank, w.prog.Epoch, err))
		}
		w.losses = append(w.losses, loss)
		w.epochTimes = append(w.epochTimes, time.Since(start))
		w.balances = append(w.balances, w.lastBalance)
	}
	if err := w.tele.Finish(); err != nil {
		return fmt.Errorf("cluster: worker %d merged trace write: %w", w.rank, err)
	}
	return nil
}

// fail tears the rank down after err: it broadcasts the abort first (so
// peers blocked in collectives fail fast), then lets the flight recorder
// dump local state — survivors push their dumps to rank 0, which drains
// briefly and writes the merged timeline — and only then closes the
// transport, so dumps still have a link to travel on. It returns err.
func (w *worker) fail(err error) error {
	w.abortPeers(err)
	w.tele.OnFailure(err)
	w.tr.Close()
	return err
}

// abortPeers broadcasts a fail-fast abort for the worker's current fence,
// unless the failure itself was a peer's abort (re-broadcasting would only
// echo it around the cluster).
func (w *worker) abortPeers(cause error) {
	var ae *collective.AbortError
	if errors.As(cause, &ae) {
		return
	}
	w.comm.Abort(collective.Fence{Epoch: w.epoch(), Phase: w.aggCalls})
}

// firstEpochError picks the error to report for a failed run: the first
// non-abort error in rank order (the root cause), falling back to the first
// abort if that is all there is.
func firstEpochError(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		var ae *collective.AbortError
		if !errors.As(err, &ae) {
			return err
		}
	}
	return first
}

// newWorker builds one worker over the given transport. Exposed via
// RunWorker for multi-process TCP deployments.
func newWorker(rank int, cfg Config, d *dataset.Dataset, factory ModelFactory, tr rpc.Transport) (*worker, error) {
	p, err := partitionFor(d, cfg.Partitioning, cfg.NumWorkers)
	if err != nil {
		return nil, err
	}
	breakdown := &metrics.Breakdown{}
	// Observability plumbing: the transport reports send latency and dial
	// retries to the registry when it knows how; the collective plane tags
	// fence waits and all-reduce laps with spans and histograms. All hooks
	// are nil-safe, so an unconfigured run pays only pointer tests.
	if ms, ok := tr.(rpc.MetricsSetter); ok {
		ms.SetMetrics(cfg.Metrics)
	}
	w := &worker{
		cfg: cfg,
		tr:  tr,
		comm: collective.New(tr, breakdown,
			collective.WithRecvTimeout(cfg.RecvTimeout),
			collective.WithTracer(cfg.Tracer),
			collective.WithMetrics(cfg.Metrics)),
		breakdown: breakdown,
		tracer:    cfg.Tracer,
		// Per-epoch cluster instruments (set on rank 0 only); nil-safe
		// no-ops when no registry is configured.
		lossGauge:  cfg.Metrics.Gauge("cluster.epoch_loss"),
		epochGauge: cfg.Metrics.Gauge("cluster.epoch_seconds"),
		epochsCtr:  cfg.Metrics.Counter("cluster.epochs"),
	}
	w.rankState = newRankState(d, p, rank, factory, cfg.Seed, cfg.LearningRate, w,
		nau.Probe{Timer: breakdown, Tracer: cfg.Tracer, Rank: int32(rank)})
	model := w.prog.Model
	w.params = model.Parameters()
	if tc := cfg.Telemetry; tc != nil {
		w.tele = telemetry.New(telemetry.Options{
			Rank:        rank,
			K:           cfg.NumWorkers,
			Comm:        w.comm,
			Tracer:      cfg.Tracer,
			Registry:    cfg.Metrics,
			Shared:      cfg.sharedObs,
			FlightDir:   tc.FlightDir,
			MergedTrace: tc.MergedTrace,
		})
		if tc.OnCollector != nil && w.tele.Collector() != nil {
			tc.OnCollector(w.tele.Collector())
		}
	}
	// The gradient all-reduce's payload: the flattened gradients, then the
	// loss and the masked count, then k ranks' per-stage seconds.
	w.gradBuf = make([]float32, nn.NumParams(w.params)+2+w.k*metrics.StageCount)
	if mb := cfg.MiniBatch; mb == nil {
		setRows(w.prog, d)
	} else {
		bs := mb.BatchSize
		if bs <= 0 {
			bs = 128
		}
		// Every rank must run the same number of gradient rounds, so the
		// schedule length follows the largest partition; smaller partitions
		// pad with empty rounds. The counts come from the shared partitioning,
		// so no collective is needed to agree on the round count.
		counts := make([]int, cfg.NumWorkers)
		for _, part := range p.Assign {
			counts[part]++
		}
		w.mbBatch = bs
		w.mbRounds = (slices.Max(counts) + bs - 1) / bs
		// The data plane: an in-memory store over the worker's dataset view
		// plus a prefetching sampler. Layer 0's schema/UDF drive neighbor
		// selection (all layers of the evaluated models share them); a nil
		// schema selects DNFA in-edge expansion.
		layer0 := model.Layers[0]
		local := store.NewLocal(store.LocalConfig{
			Graph:     d.Graph,
			Features:  d.Features,
			Labels:    d.Labels,
			TrainMask: d.TrainMask,
			Schema:    layer0.Schema(),
			UDF:       layer0.NeighborUDF(),
		})
		w.sampler = store.NewSampler(local, local, store.SamplerOptions{
			Layers:  len(model.Layers),
			Schema:  layer0.Schema(),
			Seed:    cfg.Seed,
			Depth:   mb.PrefetchDepth,
			Workers: mb.SamplerWorkers,
			Tracer:  cfg.Tracer,
			Metrics: cfg.Metrics,
			Rank:    int32(rank),
		})
		w.mbCtx = &nau.Context{Graph: d.Graph, Engine: w.prog.Ctx.Engine, RNG: w.prog.Ctx.RNG, Train: true}
	}
	if cfg.Resume != "" {
		// Restore the full training state before any collective runs: the
		// epoch counter drives the per-(epoch, vertex) selection seeds and
		// the mini-batch round fences, so every rank must agree on it from
		// the first message. Every rank reads the same snapshot — replicas
		// were bit-identical when it was written, so they are again now.
		st := &nn.TrainState{Params: w.params, Opt: w.prog.Opt}
		if err := nn.LoadStateFile(cfg.Resume, st); err != nil {
			return nil, fmt.Errorf("cluster: worker %d resume %s: %w", rank, cfg.Resume, err)
		}
		w.prog.Epoch = st.Epoch
		if st.HasRNG {
			w.prog.Ctx.RNG.SetState(st.RNG)
		}
	}
	return w, nil
}

// runEpoch executes one synchronous training epoch: the shared prologue
// (stage snapshot, epoch span), the epoch itself — the rank's program with
// the gradient all-reduce between its backward and its step, or the
// mini-batch rounds — and the shared epilogue (rank-0 instruments,
// checkpoint and telemetry fences).
func (w *worker) runEpoch() (float32, error) {
	w.aggCalls = 0
	epoch, epochStart := w.prog.Epoch, time.Now()
	// Snapshot the cumulative stage breakdown so syncGradients can ship
	// this epoch's per-stage deltas inside the gradient fence.
	w.stageMark = w.breakdown.StageTimes()
	defer w.tracer.Begin(int32(w.rank), int32(epoch), 0, trace.CatEpoch, "epoch").End()

	var globalLoss float32
	var err error
	if w.cfg.MiniBatch == nil {
		// Feature sync happens inside the forward's layers, as fenced
		// Exchanges behind the context's bottom-level hook (the worker).
		globalLoss, err = w.prog.Run(func(loss float32, masked int) (float32, error) {
			return w.syncGradients(loss, masked, 0)
		})
	} else {
		globalLoss, err = w.miniBatchEpoch()
	}
	if err != nil {
		return 0, err
	}
	if w.rank == 0 {
		w.lossGauge.Set(float64(globalLoss))
		w.epochGauge.Set(time.Since(epochStart).Seconds())
		w.epochsCtr.Inc()
		if w.cfg.OnEpoch != nil {
			w.cfg.OnEpoch(epoch, globalLoss, w.lastBalance)
		}
	}
	if err := w.maybeCheckpoint(); err != nil {
		return 0, err
	}
	if err := w.maybeTelemetry(); err != nil {
		return 0, err
	}
	return globalLoss, nil
}

// maybeTelemetry pushes this rank's epoch-fenced telemetry snapshot to the
// rank-0 collector on push boundaries. Like maybeCheckpoint it runs at the
// post-increment epoch on every rank, so the Gather fence (and, on the
// first push, the clock handshake) lines up cluster-wide.
func (w *worker) maybeTelemetry() error {
	tc := w.cfg.Telemetry
	if tc == nil || w.tele == nil {
		return nil
	}
	every := tc.Every
	if every <= 0 {
		every = 1
	}
	if w.prog.Epoch%every != 0 {
		return nil
	}
	return w.tele.PushEpoch(w.epoch())
}

// maybeCheckpoint persists the training state at a checkpoint boundary.
// All ranks fence first: a snapshot only becomes durable once every rank
// has finished the epoch, so a checkpoint on disk always names an epoch the
// WHOLE cluster completed. After syncGradients + the shared optimizer step
// the replicas are bit-identical, so rank 0's state is the cluster's state
// and one atomic write (temp + fsync + rename) suffices; a crash mid-write
// leaves the previous snapshot intact.
func (w *worker) maybeCheckpoint() error {
	ck := w.cfg.Checkpoint
	if ck == nil || ck.Path == "" {
		return nil
	}
	every := ck.Every
	if every <= 0 {
		every = 1
	}
	if w.prog.Epoch%every != 0 {
		return nil
	}
	if err := w.comm.Barrier(collective.Fence{Epoch: w.epoch(), Phase: 0}); err != nil {
		return fmt.Errorf("cluster: checkpoint fence at epoch %d: %w", w.prog.Epoch, err)
	}
	if w.rank != 0 {
		return nil
	}
	st := &nn.TrainState{
		Params: w.params,
		Opt:    w.prog.Opt,
		Epoch:  w.prog.Epoch,
		RNG:    w.prog.Ctx.RNG.State(),
		HasRNG: true,
	}
	if err := nn.SaveStateFile(ck.Path, st); err != nil {
		return fmt.Errorf("cluster: checkpoint write at epoch %d: %w", w.prog.Epoch, err)
	}
	return nil
}

// syncGradients all-reduces the flattened parameter gradients (plus the
// loss and the masked count riding in the next two slots, plus each rank's
// per-stage epoch seconds in the trailing k·StageCount slots), rescaling
// each worker's contribution by its masked-vertex count so the summed
// gradient matches single-machine whole-graph training. Returns the global
// loss. phase disambiguates the fence within an epoch: whole-graph epochs
// sync once at phase 0, mini-batch epochs once per round.
//
// The stage-seconds tail turns the sum-all-reduce into a gather for free:
// each rank writes only its own region (everyone else's region stays zero,
// so summing reproduces every rank's values on every rank). After the
// reduce, each worker assembles the epoch's workload-balance report —
// the paper's Fig. 14-style per-rank stage table — with no extra
// collective round.
//
// The ring all-reduce ships at most 2·|payload| bytes per worker regardless
// of k.
func (w *worker) syncGradients(loss float32, localCount int, phase int32) (float32, error) {
	span := w.tracer.Begin(int32(w.rank), w.epoch(), 0, trace.CatStage, "gradsync")
	defer span.End()
	syncStart := time.Now()
	defer func() { w.breakdown.Add(metrics.StageSync, time.Since(syncStart)) }()

	// Flatten local grads scaled by the local count.
	total := nn.NumParams(w.params)
	stageBase := total + 2
	payload := w.gradBuf
	clear(payload)
	off := 0
	for _, p := range w.params {
		if p.Grad != nil {
			for _, g := range p.Grad.Data() {
				payload[off] = g * float32(localCount)
				off++
			}
		} else {
			off += p.Data.Len()
		}
	}
	payload[total] = loss * float32(localCount)
	payload[total+1] = float32(localCount)
	// This epoch's per-stage seconds: cumulative breakdown minus the mark
	// taken at epoch start. Sync time is still accumulating (we are inside
	// it), so the report slightly undercounts StageSync by the reduce
	// itself — the compute stages, where stragglers live, are exact.
	stageNow := w.breakdown.StageTimes()
	for s := 0; s < metrics.StageCount; s++ {
		payload[stageBase+w.rank*metrics.StageCount+s] = float32((stageNow[s] - w.stageMark[s]).Seconds())
	}

	if err := w.comm.AllReduce(collective.Fence{Epoch: w.epoch(), Phase: phase}, payload, rpc.KindGrads); err != nil {
		return 0, fmt.Errorf("cluster: gradient all-reduce: %w", err)
	}

	// Assemble the balance report from the gathered stage-seconds tail.
	rep := metrics.NewBalanceReport(w.prog.Epoch, w.k)
	for q := 0; q < w.k; q++ {
		for s := 0; s < metrics.StageCount; s++ {
			rep.Set(metrics.Stage(s), q, float64(payload[stageBase+q*metrics.StageCount+s]))
		}
	}
	w.lastBalance = rep

	totalCount := payload[total+1]
	if totalCount == 0 {
		totalCount = 1
	}
	inv := 1 / totalCount
	off = 0
	for _, p := range w.params {
		if p.Grad == nil {
			p.Grad = tensor.New(p.Data.Shape()...)
		}
		gd := p.Grad.Data()
		for i := range gd {
			gd[i] = payload[off] * inv
			off++
		}
	}
	return payload[total] * inv, nil
}
