package cluster

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// SimConfig controls a simulated multi-machine epoch. The paper's testbed
// is 16 machines with 96 cores and 3.25 GB/s NICs; one laptop cannot show
// that scaling with real goroutine workers (they share the same cores), so
// the simulator executes each worker's compute phases serially with full
// machine parallelism — as if each worker were one of the paper's machines
// — and models communication from the actual message bytes with a
// bandwidth/latency model.
type SimConfig struct {
	NumWorkers   int
	Pipeline     bool
	Strategy     engine.Strategy
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
	RemotePartial time.Duration // computing partial sums for peers
	LocalPartial  time.Duration // local bottom aggregation
	Combine       time.Duration // merging received partials / raw rows
	RestAgg       time.Duration // intermediate + schema levels
	Update        time.Duration
	Backward      time.Duration
	CommIn        time.Duration // modeled receive time
	BytesIn       int64
	MessagesIn    int64
	// PartialModeCalls / RawModeCalls count which payload the pipelined
	// path chose per aggregation (§5's "when possible" decision).
	PartialModeCalls int
	RawModeCalls     int
}

// AggStage returns the modeled aggregation-stage time for this worker under
// the configured mode: with pipeline, local partial aggregation overlaps
// communication (§5); without, aggregation waits for all raw features.
func (w *SimWorker) AggStage(pipeline bool) time.Duration {
	if pipeline {
		overlap := w.LocalPartial
		if w.CommIn > overlap {
			overlap = w.CommIn
		}
		return w.RemotePartial + overlap + w.Combine + w.RestAgg
	}
	return w.CommIn + w.LocalPartial + w.Combine + w.RestAgg
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

// simBottom intercepts bottom-level aggregation during simulation. It
// performs the same local-width arithmetic as the concurrent runtime;
// partial sums "from peers" are computed on the owners' local tensors with
// the time attributed to the owner, and transfer time is modeled from the
// message bytes.
type simBottom struct {
	s    *simState
	rank int
}

type simState struct {
	cfg     SimConfig
	owner   []int32
	ranks   [][]int32 // per worker: global vertex -> local rank
	workers []SimWorker
	eng     *engine.Engine
	// prev holds every worker's previous-layer local features during a
	// layer phase.
	prev []*tensor.Tensor
	// plans caches split adjacencies per (worker, adjacency).
	plans map[*engine.Adjacency]*simPlan
}

type simPlan struct {
	local, remote  *engine.Adjacency
	remoteUniverse []graph.VertexID
	// tasksFromPeer[q] is what peer q computes for this worker, with
	// leaves remapped to q's local ranks.
	tasksFromPeer [][]Task
	totalDeg      []int32
	// rawRefRows counts raw rows per peer for the naive baseline (one row
	// per dependency reference); rawDedupRows counts the deduplicated rows
	// the pipelined fallback ships.
	rawRefRows   []int64
	rawDedupRows []int64
	// usePartials records whether per-destination partial sums ship fewer
	// rows than the deduplicated raw features (§5: partial aggregation is
	// applied "when possible").
	usePartials bool
}

func (b *simBottom) AggregateBottom(adj *engine.Adjacency, feats *nn.Value, op tensor.ReduceOp) *nn.Value {
	if op != tensor.ReduceSum && op != tensor.ReduceMean {
		panic(fmt.Sprintf("cluster: simulated aggregation supports sum and mean, got %v", op))
	}
	s := b.s
	w := &s.workers[b.rank]
	plan := s.plan(adj, b.rank)
	dim := feats.Data.Cols()

	var out *nn.Value
	if s.cfg.Pipeline {
		if plan.usePartials {
			w.PartialModeCalls++
		} else {
			w.RawModeCalls++
		}
	}
	if s.cfg.Pipeline && plan.usePartials {
		// Partial aggregation: peers pre-combine their contributions per
		// destination; the transfer overlaps local partial aggregation.
		remote := tensor.New(adj.NumDst, dim)
		rd := remote.Data()
		var bytesIn, msgs int64
		for q := range plan.tasksFromPeer {
			tasks := plan.tasksFromPeer[q]
			if len(tasks) == 0 {
				continue
			}
			start := time.Now()
			dsts, _, data := PartialAggregate(tasks, s.prev[q])
			s.workers[q].RemotePartial += time.Since(start)
			start = time.Now()
			for i, dst := range dsts {
				tensor.AddUnrolled(rd[int(dst)*dim:int(dst+1)*dim], data[i*dim:(i+1)*dim])
			}
			w.Combine += time.Since(start)
			bytesIn += int64(len(tasks)) * (int64(dim)*4 + 8)
			msgs++
		}
		start := time.Now()
		local := s.eng.AggregateBottom(plan.local, feats, tensor.ReduceSum)
		w.LocalPartial += time.Since(start)
		w.BytesIn += bytesIn
		w.MessagesIn += msgs
		w.CommIn += time.Duration((float64(bytesIn)/s.cfg.BandwidthBytesPerSec + float64(msgs)*s.cfg.LatencySec) * 1e9)
		out = nn.Add(local, nn.Constant(remote))
	} else if s.cfg.Pipeline {
		// Partial aggregation would ship more rows than the deduplicated
		// raw features (MAGNN's many-instances-per-leaf case): fall back
		// to batched deduplicated raw rows but keep the overlap — local
		// partial aggregation proceeds while the transfer is in flight,
		// and the remote rows are folded in on arrival (§5's "when
		// possible").
		var bytesIn, msgs int64
		for q, rows := range plan.rawDedupRows {
			if rows == 0 || q == b.rank {
				continue
			}
			bytesIn += rows * (int64(dim)*4 + 4)
			msgs++
		}
		buffer := tensor.New(maxInt(len(plan.remoteUniverse), 1), dim)
		bd := buffer.Data()
		start := time.Now()
		local := s.eng.AggregateBottom(plan.local, feats, tensor.ReduceSum)
		w.LocalPartial += time.Since(start)
		start = time.Now()
		for i, v := range plan.remoteUniverse {
			q := s.owner[v]
			r := int(s.ranks[q][v])
			copy(bd[i*dim:(i+1)*dim], s.prev[q].Data()[r*dim:(r+1)*dim])
		}
		remoteAdj := plan.remote
		if len(plan.remoteUniverse) == 0 {
			remoteAdj = &engine.Adjacency{NumDst: plan.remote.NumDst, NumSrc: 1, DstPtr: plan.remote.DstPtr, SrcIdx: plan.remote.SrcIdx}
		}
		remote := s.eng.AggregateBottom(remoteAdj, nn.Constant(buffer), tensor.ReduceSum)
		w.Combine += time.Since(start)
		w.BytesIn += bytesIn
		w.MessagesIn += msgs
		w.CommIn += time.Duration((float64(bytesIn)/s.cfg.BandwidthBytesPerSec + float64(msgs)*s.cfg.LatencySec) * 1e9)
		out = nn.Add(local, nn.Constant(remote.Data))
	} else {
		// Raw mode (the §5 baseline): peers ship one raw row per
		// dependency reference; everything is aggregated after arrival.
		var bytesIn, msgs int64
		for q, rows := range plan.rawRefRows {
			if rows == 0 || q == b.rank {
				continue
			}
			bytesIn += rows * (int64(dim)*4 + 4)
			msgs++
		}
		buffer := tensor.New(maxInt(len(plan.remoteUniverse), 1), dim)
		bd := buffer.Data()
		start := time.Now()
		for i, v := range plan.remoteUniverse {
			q := s.owner[v]
			r := int(s.ranks[q][v])
			copy(bd[i*dim:(i+1)*dim], s.prev[q].Data()[r*dim:(r+1)*dim])
		}
		w.Combine += time.Since(start)
		remoteAdj := plan.remote
		if len(plan.remoteUniverse) == 0 {
			remoteAdj = &engine.Adjacency{NumDst: plan.remote.NumDst, NumSrc: 1, DstPtr: plan.remote.DstPtr, SrcIdx: plan.remote.SrcIdx}
		}
		start = time.Now()
		local := s.eng.AggregateBottom(plan.local, feats, tensor.ReduceSum)
		remote := s.eng.AggregateBottom(remoteAdj, nn.Constant(buffer), tensor.ReduceSum)
		w.LocalPartial += time.Since(start)
		w.BytesIn += bytesIn
		w.MessagesIn += msgs
		w.CommIn += time.Duration((float64(bytesIn)/s.cfg.BandwidthBytesPerSec + float64(msgs)*s.cfg.LatencySec) * 1e9)
		out = nn.Add(local, nn.Constant(remote.Data))
	}
	if op == tensor.ReduceMean {
		start := time.Now()
		out = scaleByDeg(out, plan.totalDeg)
		w.Combine += time.Since(start)
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func scaleByDeg(v *nn.Value, deg []int32) *nn.Value {
	dim := v.Data.Cols()
	scale := tensor.New(v.Data.Rows(), dim)
	sd := scale.Data()
	for d := 0; d < v.Data.Rows(); d++ {
		inv := float32(0)
		if deg[d] > 0 {
			inv = 1 / float32(deg[d])
		}
		row := sd[d*dim : (d+1)*dim]
		for j := range row {
			row[j] = inv
		}
	}
	return nn.Mul(v, nn.Constant(scale))
}

func (s *simState) plan(adj *engine.Adjacency, rank int) *simPlan {
	if p, ok := s.plans[adj]; ok {
		return p
	}
	local, remote, remoteUniverse, peerTasks := splitAdjacency(adj, s.owner, s.ranks[rank], rank, s.cfg.NumWorkers)
	p := &simPlan{
		local:          local,
		remote:         remote,
		remoteUniverse: remoteUniverse,
		tasksFromPeer:  peerTasks,
		totalDeg:       adj.Degrees(),
		rawRefRows:     make([]int64, s.cfg.NumWorkers),
		rawDedupRows:   make([]int64, s.cfg.NumWorkers),
	}
	// Remap each peer's task leaves into the peer's local ranks and count
	// its reference and deduplicated raw rows.
	var totalTasks, totalDedup int64
	for q := range peerTasks {
		seen := map[int32]bool{}
		for ti := range peerTasks[q] {
			for li, v := range peerTasks[q][ti].Leaves {
				p.rawRefRows[q]++
				if !seen[v] {
					seen[v] = true
					p.rawDedupRows[q]++
				}
				peerTasks[q][ti].Leaves[li] = s.ranks[q][v]
			}
		}
		totalTasks += int64(len(peerTasks[q]))
		totalDedup += p.rawDedupRows[q]
	}
	p.usePartials = totalTasks <= totalDedup
	s.plans[adj] = p
	return p
}

// SimulateEpoch runs one simulated distributed training epoch and returns
// per-worker measured compute plus modeled communication.
func SimulateEpoch(d *dataset.Dataset, factory ModelFactory, cfg SimConfig) (*SimResult, error) {
	sim, err := NewSimulation(d, factory, cfg)
	if err != nil {
		return nil, err
	}
	return sim.Epoch()
}

// Simulation holds reusable state for multi-epoch simulated runs.
type Simulation struct {
	cfg    SimConfig
	d      *dataset.Dataset
	models []*nau.Model
	ctxs   []*nau.Context
	roots  [][]graph.VertexID
	rootIx [][]int32
	hdgs   []*hdg.HDG
	state  *simState
	epoch  int
}

// NewSimulation partitions the dataset and builds per-worker model
// replicas.
func NewSimulation(d *dataset.Dataset, factory ModelFactory, cfg SimConfig) (*Simulation, error) {
	cfg.defaults()
	if cfg.NumWorkers <= 0 {
		return nil, fmt.Errorf("cluster: NumWorkers must be positive")
	}
	p := cfg.Partitioning
	if p == nil {
		p = partition.Hash(d.Graph.NumVertices(), cfg.NumWorkers)
	}
	if p.K != cfg.NumWorkers {
		return nil, fmt.Errorf("cluster: partitioning has %d parts, want %d", p.K, cfg.NumWorkers)
	}
	sim := &Simulation{cfg: cfg, d: d}
	sim.state = &simState{
		cfg:   cfg,
		owner: p.Assign,
		eng:   engine.New(cfg.Strategy),
		plans: map[*engine.Adjacency]*simPlan{},
	}
	sim.roots = make([][]graph.VertexID, cfg.NumWorkers)
	for v, part := range p.Assign {
		sim.roots[part] = append(sim.roots[part], graph.VertexID(v))
	}
	sim.state.ranks = make([][]int32, cfg.NumWorkers)
	for rank := 0; rank < cfg.NumWorkers; rank++ {
		sim.state.ranks[rank] = buildLocalRank(d.Graph.NumVertices(), sim.roots[rank])
		m := factory(tensor.NewRNG(cfg.Seed))
		sim.models = append(sim.models, m)
		ctx := &nau.Context{
			Graph:          d.Graph,
			Engine:         sim.state.eng,
			NumFeatureRows: d.Graph.NumVertices(),
			RNG:            tensor.NewRNG(cfg.Seed + uint64(rank)),
			Bottom:         &simBottom{s: sim.state, rank: rank},
		}
		ctx.SetGraphAdjacency(localGraphAdjacency(d.Graph, sim.roots[rank]))
		sim.ctxs = append(sim.ctxs, ctx)
		sim.rootIx = append(sim.rootIx, localRows(sim.roots[rank]))
	}
	sim.hdgs = make([]*hdg.HDG, cfg.NumWorkers)
	return sim, nil
}

// totalAggAccounted sums the aggregation compute already attributed across
// all workers, used to avoid double counting in RestAgg.
func (s *Simulation) totalAggAccounted() time.Duration {
	var t time.Duration
	for i := range s.state.workers {
		w := &s.state.workers[i]
		t += w.RemotePartial + w.LocalPartial + w.Combine
	}
	return t
}

// Epoch runs one simulated epoch.
func (s *Simulation) Epoch() (*SimResult, error) {
	k := s.cfg.NumWorkers
	s.state.workers = make([]SimWorker, k)
	d := s.d

	// Neighbor selection per worker (serial, timed).
	for rank := 0; rank < k; rank++ {
		m := s.models[rank]
		if !m.NeedsHDG() {
			continue
		}
		if s.hdgs[rank] != nil && m.Cache == nau.CacheForever {
			continue
		}
		layer := m.Layers[0]
		start := time.Now()
		h, err := selectSeeded(d.Graph, layer.Schema(), layer.NeighborUDF(), s.roots[rank],
			s.cfg.Seed^(uint64(s.epoch+1)*0x9e3779b97f4a7c15))
		s.state.workers[rank].Selection = time.Since(start)
		if err != nil {
			return nil, err
		}
		s.hdgs[rank] = h
		s.ctxs[rank].InvalidateHDG(h)
		s.state.plans = map[*engine.Adjacency]*simPlan{}
	}

	numLayers := len(s.models[0].Layers)
	hLocal := make([]*nn.Value, k)
	input := nn.Constant(d.Features)
	for rank := 0; rank < k; rank++ {
		hLocal[rank] = nn.Gather(input, s.rootIx[rank])
	}
	for li := 0; li < numLayers; li++ {
		// Publish the previous-layer local tensors so simBottom can
		// compute peers' partial sums from the owners' data.
		s.state.prev = make([]*tensor.Tensor, k)
		for rank := 0; rank < k; rank++ {
			s.state.prev[rank] = hLocal[rank].Data
		}
		next := make([]*nn.Value, k)
		for rank := 0; rank < k; rank++ {
			ctx := s.ctxs[rank]
			layer := s.models[rank].Layers[li]
			w := &s.state.workers[rank]
			// Peers' partial-sum time is attributed to the *sender* inside
			// the Aggregation call, so the double-count subtraction must
			// total the deltas across all workers.
			before := s.totalAggAccounted()
			start := time.Now()
			nbr := layer.Aggregation(ctx, hLocal[rank])
			elapsed := time.Since(start)
			inner := s.totalAggAccounted() - before
			if rest := elapsed - inner; rest > 0 {
				w.RestAgg += rest
			}
			start = time.Now()
			next[rank] = layer.Update(ctx, hLocal[rank], nbr)
			w.Update += time.Since(start)
		}
		hLocal = next
	}

	// Loss and backward per worker (each with its own replica and a
	// local-only gradient graph).
	var lossSum float64
	var maskSum int
	for rank := 0; rank < k; rank++ {
		labels := make([]int32, len(s.roots[rank]))
		mask := make([]bool, len(s.roots[rank]))
		m := 0
		for i, v := range s.roots[rank] {
			labels[i] = d.Labels[v]
			mask[i] = d.TrainMask[v]
			if mask[i] {
				m++
			}
		}
		loss := nn.CrossEntropy(hLocal[rank], labels, mask)
		start := time.Now()
		for _, p := range s.models[rank].Parameters() {
			p.ZeroGrad()
		}
		loss.Backward()
		s.state.workers[rank].Backward += time.Since(start)
		lossSum += float64(loss.Data.At(0, 0)) * float64(m)
		maskSum += m
	}
	if maskSum == 0 {
		maskSum = 1
	}
	s.epoch++

	res := &SimResult{PerWorker: s.state.workers, Loss: float32(lossSum / float64(maskSum))}
	for i := range res.PerWorker {
		w := &res.PerWorker[i]
		if t := w.Epoch(s.cfg.Pipeline); t > res.EpochTime {
			res.EpochTime = t
		}
		if t := w.AggStage(s.cfg.Pipeline); t > res.AggTime {
			res.AggTime = t
		}
		if t := w.AggCompute(); t > res.AggComputeTime {
			res.AggComputeTime = t
		}
	}
	return res, nil
}
