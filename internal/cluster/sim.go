package cluster

import (
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/rpc"
	"repro/internal/tensor"
)

// SimConfig controls a simulated multi-machine epoch. The paper's testbed
// is 16 machines with 96 cores and 3.25 GB/s NICs; one laptop cannot show
// that scaling with real goroutine workers (they share the same cores), so
// the simulator runs the worker's own rank-local pieces (plan.go) and layer
// step serially with full machine parallelism — as if each worker were one
// of the paper's machines — and prices the messages they build with a
// bandwidth/latency model. What it owns is the serial schedule and the cost
// model below; the arithmetic is the concurrent runtime's.
type SimConfig struct {
	NumWorkers   int
	Pipeline     bool
	Partitioning *partition.Partitioning // nil selects Hash
	// BandwidthBytesPerSec models the NIC (default 3.25 GB/s, §7's
	// testbed).
	BandwidthBytesPerSec float64
	// LatencySec is the per-message overhead (default 50µs).
	LatencySec float64
	Seed       uint64
}

func (c *SimConfig) defaults() {
	if c.BandwidthBytesPerSec == 0 {
		c.BandwidthBytesPerSec = 3.25e9
	}
	if c.LatencySec == 0 {
		c.LatencySec = 50e-6
	}
}

// SimWorker holds one worker's measured compute and modeled communication.
type SimWorker struct {
	Selection     time.Duration
	RemotePartial time.Duration // building peers' payloads (partial sums or raw rows)
	LocalPartial  time.Duration // local bottom aggregation
	Combine       time.Duration // folding received partials / raw rows
	RestAgg       time.Duration // intermediate + schema levels
	Update        time.Duration
	Backward      time.Duration
	CommIn        time.Duration // modeled receive time
	BytesIn       int64
}

// AggStage returns the modeled aggregation-stage time for this worker under
// the configured mode: with pipeline, local partial aggregation overlaps
// communication (§5); without, aggregation waits for all raw features.
func (w *SimWorker) AggStage(pipeline bool) time.Duration {
	wire := w.CommIn + w.LocalPartial
	if pipeline {
		wire = max(w.CommIn, w.LocalPartial)
	}
	return w.RemotePartial + wire + w.Combine + w.RestAgg
}

// AggCompute returns the worker's aggregation-stage compute only (no
// modeled communication) — the per-machine quantity workload balancing
// equalises (§7.6).
func (w *SimWorker) AggCompute() time.Duration {
	return w.RemotePartial + w.LocalPartial + w.Combine + w.RestAgg
}

// Epoch returns the worker's modeled end-to-end epoch time.
func (w *SimWorker) Epoch(pipeline bool) time.Duration {
	return w.Selection + w.AggStage(pipeline) + w.Update + w.Backward
}

// SimResult reports one simulated epoch.
type SimResult struct {
	PerWorker []SimWorker
	// EpochTime is the modeled wall time: the slowest worker (synchronous
	// training ends with a barrier).
	EpochTime time.Duration
	// AggTime is the modeled Aggregation-stage wall time (Figures 14/15).
	AggTime time.Duration
	// AggComputeTime is the slowest worker's aggregation compute, without
	// modeled communication (the Figure-15a balance metric).
	AggComputeTime time.Duration
	// Loss is the global training loss of the simulated epoch.
	Loss float32
}

// AggregateBottom is the rank's bottom-aggregation hook during simulation:
// the worker's AggregateBottom with the Exchange replaced by building every
// peer's payload in place, from the owner's previous-layer rows and on the
// owner's clock.
func (r *simRank) AggregateBottom(adj *engine.Adjacency, feats *nn.Value, op tensor.ReduceOp) (*nn.Value, error) {
	if err := checkSplittable(op); err != nil {
		return nil, err
	}
	s, w := r.s, &r.s.stats[r.rank]
	// Every phase in here is attributed below; booking the whole call as
	// sync keeps it out of the layer step's remainder, which is RestAgg.
	defer func(start time.Time) { r.timer.Add(metrics.StageSync, time.Since(start)) }(time.Now())
	// The plan exchange without a wire: each peer accepts r's request to it
	// in place.
	x, err := r.exchangePlan(adj, s.cfg.Pipeline, func(p *rankPlan) ([]*rpc.Message, error) {
		reqs := make([]*rpc.Message, len(s.ranks))
		for q := range reqs {
			if q != r.rank {
				reqs[q] = p.request(q)
			}
		}
		return reqs, nil
	}, func(q int) ([]int32, int) { return s.ranks[q].localRank, q })
	if err != nil {
		return nil, err
	}
	var msgs []*rpc.Message
	var bytes int64
	for q := range s.ranks {
		if q == r.rank {
			continue
		}
		start := time.Now()
		m := x.duties[q].payload(s.ranks[q].prev)
		s.stats[q].RemotePartial += time.Since(start)
		m.From = int32(q)
		msgs = append(msgs, m)
		bytes += m.NumBytes()
	}
	start := time.Now()
	localSum := x.plan.localSum(feats)
	w.LocalPartial += time.Since(start)
	start = time.Now()
	out, err := x.plan.combine(localSum, msgs, op)
	w.Combine += time.Since(start)
	w.BytesIn += bytes
	w.CommIn += time.Duration((float64(bytes)/s.cfg.BandwidthBytesPerSec + float64(len(msgs))*s.cfg.LatencySec) * 1e9)
	return out, err
}

// Simulation holds reusable state for multi-epoch simulated runs.
type Simulation struct {
	cfg   SimConfig
	ranks []simRank
	stats []SimWorker
}

// simRank is one simulated worker: the rank's program over its partition,
// whose context's bottom-level hook it is.
type simRank struct {
	rankState
	s *Simulation
	// timer receives the program's stage times: selection, the aggregation
	// remainder (RestAgg), Update and Backward.
	timer *metrics.Breakdown
	// prev is the rank's previous-layer rows during a layer phase, where
	// its peers' hooks read them.
	prev *tensor.Tensor
}

// NewSimulation partitions the dataset and builds per-worker model
// replicas.
func NewSimulation(d *dataset.Dataset, factory ModelFactory, cfg SimConfig) (*Simulation, error) {
	cfg.defaults()
	p, err := partitionFor(d, cfg.Partitioning, cfg.NumWorkers)
	if err != nil {
		return nil, err
	}
	s := &Simulation{cfg: cfg, ranks: make([]simRank, cfg.NumWorkers)}
	for rank := range s.ranks {
		r := &s.ranks[rank]
		r.s, r.timer = s, &metrics.Breakdown{}
		r.rankState = newRankState(d, p, rank, factory, cfg.Seed, 0, r, nau.Probe{Timer: r.timer})
		setRows(r.prog, d)
	}
	return s, nil
}

// Epoch runs one simulated epoch: each rank's program, one rank at a time
// within each phase — select and input, every layer, loss and backward — and
// no step. Like a worker's, a simulation's first epoch is the cold one: from
// the second on, a model whose dependency structure is static pays neither
// the compute nor the modeled bytes of the first layer's bottom level
// (nau.Context.Input).
func (s *Simulation) Epoch() (*SimResult, error) {
	s.stats = make([]SimWorker, len(s.ranks))
	h := make([]*nn.Value, len(s.ranks))
	for rank := range s.ranks {
		r := &s.ranks[rank]
		r.timer.Reset()
		if err := r.prog.Select(); err != nil {
			return nil, err
		}
		h[rank] = r.prog.Input()
	}

	for li := range s.ranks[0].prog.Model.Layers {
		// Publish the previous-layer local tensors before any rank runs the
		// layer: a rank's hook builds its peers' payloads from them.
		for rank := range s.ranks {
			s.ranks[rank].prev = h[rank].Data
		}
		next := make([]*nn.Value, len(s.ranks))
		for rank := range s.ranks {
			var err error
			if next[rank], err = s.ranks[rank].prog.Layer(li, h[rank], nil); err != nil {
				return nil, err
			}
		}
		h = next
	}

	// Loss and backward per worker (each with its own replica and a
	// local-only gradient graph); the simulator never steps, so it advances
	// each program's epoch itself.
	var lossSum float64
	var maskSum int
	for rank := range s.ranks {
		r, w := &s.ranks[rank], &s.stats[rank]
		loss := r.prog.Backward(h[rank])
		r.prog.Epoch++
		w.Selection = r.timer.Get(metrics.StageNeighborSelection)
		w.RestAgg = r.timer.Get(metrics.StageAggregation)
		w.Update = r.timer.Get(metrics.StageUpdate)
		w.Backward = r.timer.Get(metrics.StageBackward)
		lossSum += float64(loss.Data.At(0, 0)) * float64(r.prog.Masked)
		maskSum += r.prog.Masked
	}

	res := &SimResult{PerWorker: s.stats, Loss: float32(lossSum / float64(max(maskSum, 1)))}
	for i := range res.PerWorker {
		w := &res.PerWorker[i]
		res.EpochTime = max(res.EpochTime, w.Epoch(s.cfg.Pipeline))
		res.AggTime = max(res.AggTime, w.AggStage(s.cfg.Pipeline))
		res.AggComputeTime = max(res.AggComputeTime, w.AggCompute())
	}
	return res, nil
}
