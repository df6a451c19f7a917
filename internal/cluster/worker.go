package cluster

import (
	"fmt"
	"time"

	"repro/internal/collective"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hdg"
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

// worker is one shared-nothing training participant. It owns a disjoint set
// of root vertices, holds a full model replica, and exchanges feature
// messages with its peers at layer boundaries. All feature tensors a worker
// holds are local-width ([#local roots, dim]); remote contributions arrive
// as messages, so memory and backward traffic scale with the partition
// size, as on the paper's shared-nothing machines.
//
// All wire traffic goes through comm, the typed collective plane: plan
// exchange, feature synchronisation and gradient sync are expressed as
// fenced collective calls rather than hand-rolled send/recv matching.
type worker struct {
	// rankState is the rank's program over its partition, with the worker
	// itself as the context's bottom-level hook.
	rankState
	cfg  Config
	tr   rpc.Transport
	comm *collective.Comm

	params []*nn.Value
	// gradBuf is the gradient all-reduce's payload, reused by every sync.
	gradBuf   []float32
	breakdown *metrics.Breakdown

	// tracer records rank-tagged epoch and stage spans (nil = off).
	tracer *trace.Tracer
	// tele is this rank's half of the cluster telemetry plane: epoch-fenced
	// snapshot pushes to the rank-0 collector plus the crash flight
	// recorder (nil = off; every method on a nil plane no-ops).
	tele *telemetry.Plane
	// Rank-0 per-epoch instruments (nil-safe no-ops when Config.Metrics is
	// unset).
	lossGauge  *metrics.Gauge
	epochGauge *metrics.Gauge
	epochsCtr  *metrics.Counter
	// stageMark snapshots the cumulative stage breakdown at epoch start so
	// syncGradients can ship this epoch's per-stage deltas to its peers.
	stageMark [metrics.StageCount]time.Duration
	// lastBalance is the most recent epoch's workload-balance report (the
	// Fig. 14-style per-rank stage table), assembled after gradient sync.
	lastBalance *metrics.BalanceReport
	// losses, epochTimes and balances record every epoch run has finished:
	// its global loss, its wall-clock time and its balance report.
	losses     []float32
	epochTimes []time.Duration
	balances   []*metrics.BalanceReport

	aggCalls int32 // aggregation call counter within the epoch (layer tag)

	// Mini-batch mode (Config.MiniBatch != nil): the prefetching data
	// plane over this worker's partition, the per-round batch size, the
	// cluster-wide round count (largest partition's schedule length) and
	// the context every batch's layers run in.
	sampler  *store.Sampler
	mbBatch  int
	mbRounds int
	mbCtx    *nau.Context
}

// epoch is the epoch the worker is in, as its fences and spans name it.
func (w *worker) epoch() int32 { return int32(w.prog.Epoch) }

// rankState is one rank of a whole-graph run as the runtime and the simulator
// both hold it: its program over the roots the partitioning gives it, the
// partitioning, and the plans it exchanged (exchangePlan).
type rankState struct {
	prog      *nau.Program
	rank, k   int
	owner     []int32 // global vertex -> rank
	localRank []int32 // global vertex -> local root rank, -1 if not owned
	plans     map[*engine.Adjacency]*exchanged
	plansHDG  *hdg.HDG // the context's HDG plans were exchanged under
}

// newRankState builds rank's share of a run over d partitioned by p: its
// roots, a model replica from factory on an RNG seeded seed (so every rank
// starts equal), the layers' RNG stream seeded seed+1000, an Adam at lr (0
// selects 0.01), and a context over the rank's local-root 1-hop view with
// bottom as its bottom-level hook, reporting to probe. The rows are not
// gathered here (setRows): a mini-batch worker never reads them.
func newRankState(d *dataset.Dataset, p *partition.Partitioning, rank int, factory ModelFactory, seed uint64, lr float32,
	bottom nau.BottomAggregator, probe nau.Probe) rankState {
	var roots []graph.VertexID
	for v, part := range p.Assign {
		if int(part) == rank {
			roots = append(roots, graph.VertexID(v))
		}
	}
	if lr == 0 {
		lr = 0.01
	}
	model := factory(tensor.NewRNG(seed))
	ctx := &nau.Context{Graph: d.Graph, Engine: engine.New(engine.StrategyHA), RNG: tensor.NewRNG(seed + 1000),
		NumFeatureRows: d.Graph.NumVertices(), Bottom: bottom}
	ctx.SetGraphAdjacency(localGraphAdjacency(d.Graph, roots))
	return rankState{
		prog: &nau.Program{Model: model, Ctx: ctx, Roots: roots, Opt: nn.NewAdam(model.Parameters(), lr),
			Seed: seed, Probe: probe},
		rank: rank, k: p.K, owner: p.Assign,
		localRank: buildLocalRank(d.Graph.NumVertices(), roots),
		plans:     make(map[*engine.Adjacency]*exchanged),
	}
}

// setRows gives p the rows of d that belong to its roots, in root order: the
// features (exact row copies, the tensor Context.Input is handed, so never
// written again), the labels, the loss mask and its count.
func setRows(p *nau.Program, d *dataset.Dataset) {
	p.Feats = tensor.Gather(d.Features, p.Roots)
	p.Labels, p.Mask = make([]int32, len(p.Roots)), make([]bool, len(p.Roots))
	for i, v := range p.Roots {
		p.Labels[i], p.Mask[i] = d.Labels[v], d.TrainMask[v]
		if p.Mask[i] {
			p.Masked++
		}
	}
}

// partitionFor checks p, or Hash when p is nil, against k ranks.
func partitionFor(d *dataset.Dataset, p *partition.Partitioning, k int) (*partition.Partitioning, error) {
	if k <= 0 {
		return nil, fmt.Errorf("cluster: NumWorkers must be positive")
	}
	if p == nil {
		p = partition.Hash(d.Graph.NumVertices(), k)
	}
	if p.K != k {
		return nil, fmt.Errorf("cluster: partitioning has %d parts, want %d", p.K, k)
	}
	return p, nil
}

// localGraphAdjacency builds the 1-hop in-edge adjacency whose destination
// rows are the worker's roots (in root order) and whose sources are global
// vertex IDs.
func localGraphAdjacency(g *graph.Graph, roots []graph.VertexID) *engine.Adjacency {
	ptr := make([]int64, len(roots)+1)
	for i, v := range roots {
		ptr[i+1] = ptr[i] + int64(g.InDegree(v))
	}
	idx := make([]int32, ptr[len(roots)])
	for i, v := range roots {
		copy(idx[ptr[i]:ptr[i+1]], g.InNeighbors(v))
	}
	return &engine.Adjacency{NumDst: len(roots), NumSrc: g.NumVertices(), DstPtr: ptr, SrcIdx: idx}
}

// buildLocalRank inverts a root list into a global-size rank array.
func buildLocalRank(n int, roots []graph.VertexID) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = -1
	}
	for i, v := range roots {
		out[v] = int32(i)
	}
	return out
}

// ensurePlan exchanges the communication plan for adj with all peers
// (exchangePlan: cached per adjacency until the next selection). The
// exchange is a dedicated KindPlan collective, fenced on (epoch,
// aggregation call).
func (w *worker) ensurePlan(adj *engine.Adjacency) (*exchanged, error) {
	return w.exchangePlan(adj, w.cfg.Pipeline, func(p *rankPlan) ([]*rpc.Message, error) {
		msgs, err := w.comm.Exchange(collective.Fence{Epoch: w.epoch(), Phase: w.aggCalls}, rpc.KindPlan, p.request, nil)
		reqs := make([]*rpc.Message, w.k)
		for _, m := range msgs {
			reqs[m.From] = m
		}
		return reqs, err
	}, func(int) ([]int32, int) { return w.localRank, w.rank })
}

// AggregateBottom implements nau.BottomAggregator: the distributed bottom
// aggregation, the rank-local pieces of plan.go around one fenced Exchange.
// Every peer is built the payload kind it announced at plan exchange. With
// pipeline processing (§5) the local fused aggregation runs in the
// collective's overlap window while messages are in flight; without it,
// aggregation waits for all raw rows. feats holds the previous layer's
// local-width features ([#local roots, dim]).
func (w *worker) AggregateBottom(adj *engine.Adjacency, feats *nn.Value, op tensor.ReduceOp) (*nn.Value, error) {
	if err := checkSplittable(op); err != nil {
		return nil, err
	}
	x, err := w.ensurePlan(adj)
	if err != nil {
		return nil, fmt.Errorf("cluster: plan exchange failed: %w", err)
	}
	layer := w.aggCalls
	w.aggCalls++

	var (
		localSum *nn.Value
		aggDur   time.Duration
	)
	local := func() {
		start := time.Now()
		localSum = x.plan.localSum(feats)
		aggDur = time.Since(start)
	}
	overlap := local
	if !w.cfg.Pipeline {
		overlap = nil
	}
	syncStart := time.Now()
	msgs, err := w.comm.Exchange(
		collective.Fence{Epoch: w.epoch(), Phase: layer},
		x.plan.recvKind(),
		func(q int) *rpc.Message { return x.duties[q].payload(feats.Data) },
		overlap)
	if err != nil {
		return nil, fmt.Errorf("cluster: feature sync failed: %w", err)
	}
	if overlap == nil {
		local()
	}
	start := time.Now()
	out, err := x.plan.combine(localSum, msgs, op)
	// The payloads are folded: their messages go back to the transport.
	for _, m := range msgs {
		m.Release()
	}
	if !w.cfg.Pipeline {
		// Without the overlap everything after the wait is aggregation;
		// with it, folding the arrivals is the tail of the sync.
		aggDur += time.Since(start)
	}
	w.breakdown.Add(metrics.StageAggregation, aggDur)
	w.breakdown.Add(metrics.StageSync, time.Since(syncStart)-aggDur)
	return out, err
}

var _ nau.BottomAggregator = (*worker)(nil)
