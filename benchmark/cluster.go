package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// mesh is k connected transports plus what tears them down.
type mesh struct {
	trs   []rpc.Transport
	close func()
}

// newMesh brings up k transports: a TCP mesh on ephemeral loopback ports, or
// the in-process loopback network.
func newMesh(k int, tcp bool) (*mesh, error) {
	if !tcp {
		netw := rpc.NewLoopbackNetwork(k)
		m := &mesh{close: netw.Close}
		for r := 0; r < k; r++ {
			m.trs = append(m.trs, netw.Transport(r))
		}
		return m, nil
	}
	// Every transport shares addrs, so each peer's real port is visible to
	// the others by the time Connect dials.
	addrs := make([]string, k)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	tcps := make([]*rpc.TCPTransport, k)
	closeAll := func() {
		for _, t := range tcps {
			if t != nil {
				t.Close()
			}
		}
	}
	for r := 0; r < k; r++ {
		t, err := rpc.NewTCPTransport(r, addrs)
		if err != nil {
			closeAll()
			return nil, err
		}
		tcps[r] = t
		addrs[r] = t.Addr()
	}
	errs := make([]error, k)
	var wg sync.WaitGroup
	for r := range tcps {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = tcps[r].Connect()
		}(r)
	}
	wg.Wait()
	m := &mesh{close: closeAll}
	for r, t := range tcps {
		if errs[r] != nil {
			closeAll()
			return nil, fmt.Errorf("connect rank %d: %w", r, errs[r])
		}
		m.trs = append(m.trs, t)
	}
	return m, nil
}

// clusterOut is what one cluster run exposes to the outside. Rank 0's
// Config.OnEpoch stamps the end of every epoch; an epoch lasts from the
// previous stamp to its own.
type clusterOut struct {
	epochs    int
	start     time.Time
	ends      []time.Time
	losses    [][]float32 // per rank over TCP; one row from cluster.Train
	perWorker []*metrics.Breakdown
	balance   []*metrics.BalanceReport
}

// epochSeries returns the seconds of epochs [from, to). Epoch 0 runs from the
// call's start, so it includes building the workers.
func (o *clusterOut) epochSeries(from, to int) []float64 {
	var secs []float64
	for i := from; i < to && i < len(o.ends); i++ {
		begin := o.start
		if i > 0 {
			begin = o.ends[i-1]
		}
		secs = append(secs, o.ends[i].Sub(begin).Seconds())
	}
	return secs
}

// timedEpochs is the series of every epoch after the warm-up ones.
func (o *clusterOut) timedEpochs() []float64 { return o.epochSeries(warmEpochs, len(o.ends)) }

// execCluster runs the workload's model for `epochs` epochs on k ranks:
// cluster.RunWorker per rank over a TCP mesh, or cluster.Train over loopback.
// With a tracer it also switches on the registry and the telemetry plane.
func execCluster(e *env, parent uint64, d *dataset.Dataset, k int, tcp bool, mb *cluster.MiniBatchConfig, epochs int, tracer *trace.Tracer) (*clusterOut, error) {
	sp := e.span(parent, "cluster", fmt.Sprintf("run_k%d", k))
	defer sp.End()
	out := &clusterOut{epochs: epochs}
	cfg := cluster.Config{
		NumWorkers:  k,
		Pipeline:    true,
		Epochs:      epochs,
		Seed:        e.seed,
		RecvTimeout: 30 * time.Second,
		MiniBatch:   mb,
		Tracer:      tracer,
		OnEpoch: func(_ int, _ float32, b *metrics.BalanceReport) {
			out.ends = append(out.ends, time.Now())
			out.balance = append(out.balance, b)
		},
	}
	if tracer != nil {
		cfg.Metrics = metrics.NewRegistry()
		cfg.Telemetry = &cluster.TelemetryConfig{Every: 1}
	}
	factory := e.spec.factory(d)
	if !tcp {
		out.start = time.Now()
		res, err := cluster.Train(cfg, d, factory)
		if err != nil {
			return nil, err
		}
		out.losses = [][]float32{res.Losses}
		out.perWorker = res.PerWorker
		return out, nil
	}
	out.start = time.Now()
	m, err := newMesh(k, true)
	if err != nil {
		return nil, err
	}
	defer m.close()
	out.losses = make([][]float32, k)
	out.perWorker = make([]*metrics.Breakdown, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out.losses[r], out.perWorker[r], errs[r] = cluster.RunWorker(cfg, d, factory, m.trs[r])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return out, nil
}

// checkRanks verifies that every rank reported the same loss sequence.
func (e *env) checkRanks(o *clusterOut) {
	for r := 1; r < len(o.losses); r++ {
		if len(o.losses[r]) != len(o.losses[0]) {
			e.fail("rank %d ran %d epochs, rank 0 ran %d", r, len(o.losses[r]), len(o.losses[0]))
			continue
		}
		for i := range o.losses[r] {
			if math.Float32bits(o.losses[r][i]) != math.Float32bits(o.losses[0][i]) {
				e.fail("rank %d and rank 0 disagree on the loss of epoch %d", r, i+1)
				break
			}
		}
	}
}

// clusterRound is one round of a cluster workload: a fresh dataset and one
// cluster run of the warm-up epochs plus timed ones. The set-up is the
// generation plus the run up to the end of its warm-up epochs, the first of
// which builds the workers and exchanges the plan. The runtime takes its
// epoch count up front, so a round is sized from the epoch time the rounds
// before it measured; the first one runs minTimed epochs.
func clusterRound(e *env, m *meter, st *roundState, _ int, slice time.Duration) error {
	sp := e.spec
	t0 := time.Now()
	d, err := sp.generate(e.seed, e.tiny)
	if err != nil {
		return err
	}
	genS := time.Since(t0).Seconds()
	timed := minTimed
	if st.epochS > 0 {
		timed = max(timed, int(math.Ceil(slice.Seconds()/st.epochS)))
	}
	o, err := execCluster(e, 0, d, 2, sp.tcp, sp.miniBatch, warmEpochs+timed, nil)
	if err != nil {
		return err
	}
	// Nothing can be read while the ranks run, so the set-up and the timed
	// epochs share the one interval the run took.
	slow := m.interval()
	m.setup(genS+sum(o.epochSeries(0, warmEpochs)), slow)
	e.bookEpochs(m, o.timedEpochs(), d.Graph.NumVertices(), slow)
	st.epochS = mean(o.timedEpochs())
	e.checkRanks(o)
	e.sameLosses(st, o.losses[0])
	e.checkLosses(o.losses[0])
	return nil
}

// traceEpochs is the fixed epoch count of a traced cluster slice: fixed, not
// timed, so the byte and message counts repeat exactly.
func (e *env) traceEpochs(own bool) int {
	switch {
	case e.tiny:
		return 3
	case own:
		return 20
	default:
		return 4
	}
}

// clusterLayers runs the workload's dataset and model on a 2-rank cluster
// with tracer, registry and telemetry on and derives the cluster.* metrics
// from the breakdowns and balance reports the runtime returns. Cluster
// workloads use their own transport and mode; the others get a short
// whole-graph loopback run. It also runs the same task at k=1 as the plain
// baseline. A cluster workload (own) first runs an untraced slice of the same
// length.
func clusterLayers(e *env, parent uint64, d *dataset.Dataset, own bool, tracer *trace.Tracer) (untraced, traced []float64, err error) {
	sp := e.span(parent, "cluster", "cluster_layers")
	defer sp.End()
	tcp, mb := own && e.spec.tcp, e.spec.miniBatch
	epochs := warmEpochs + e.traceEpochs(own)
	if own {
		o, err := execCluster(e, sp.ID(), d, 2, tcp, mb, epochs, nil)
		if err != nil {
			return nil, nil, err
		}
		untraced = o.timedEpochs()
	}
	o, err := execCluster(e, sp.ID(), d, 2, tcp, mb, epochs, tracer)
	if err != nil {
		return nil, nil, err
	}
	traced = o.timedEpochs()
	if own {
		e.ops += len(untraced) + len(traced)
		e.checkRanks(o)
		e.checkLosses(o.losses[0])
	}

	// Slowest rank per epoch, from the balance reports assembled inside the
	// gradient fence: the slowest rank sets the epoch.
	stageNames := [metrics.StageCount]string{"selection", "aggregation", "update", "backward", "sync"}
	var skews []float64
	stageMax := make([]float64, metrics.StageCount)
	reports := 0
	for i, b := range o.balance {
		if b == nil || i < warmEpochs {
			continue
		}
		reports++
		total := make([]float64, b.Ranks())
		for s := 0; s < metrics.StageCount; s++ {
			mx := 0.0
			for r, v := range b.Seconds[s] {
				mx = math.Max(mx, v)
				if metrics.Stage(s) != metrics.StageSync {
					total[r] += v
				}
			}
			stageMax[s] += mx
		}
		if m := mean(total); m > 0 {
			mx := 0.0
			for _, v := range total {
				mx = math.Max(mx, v)
			}
			skews = append(skews, mx/m)
		}
	}
	if reports == 0 {
		return nil, nil, fmt.Errorf("cluster run returned no balance reports")
	}
	for s, name := range stageNames {
		e.metrics["cluster.stage_"+name+"_s"] = stageMax[s] / float64(reports)
	}
	e.metrics["cluster.skew_max_over_mean"] = mean(skews)

	// Exact traffic counts, summed over ranks. The plan is exchanged once;
	// everything else is per epoch.
	var feat, part, grads, plan, msgs int64
	for _, bd := range o.perWorker {
		feat += bd.SentBytes(metrics.ClassFeatures)
		part += bd.SentBytes(metrics.ClassPartials)
		grads += bd.SentBytes(metrics.ClassGrads)
		plan += bd.SentBytes(metrics.ClassPlan)
		msgs += bd.MessagesSent.Load()
	}
	n := float64(o.epochs)
	e.metrics["cluster.bytes_features"] = float64(feat) / n
	e.metrics["cluster.bytes_partials"] = float64(part) / n
	e.metrics["cluster.bytes_grads"] = float64(grads) / n
	e.metrics["cluster.bytes_plan"] = float64(plan)
	e.metrics["cluster.msgs_per_epoch"] = float64(msgs) / n

	k1, err := execCluster(e, sp.ID(), d, 1, false, mb, warmEpochs+e.traceEpochs(false), nil)
	if err != nil {
		return nil, nil, err
	}
	k1S := median(k1.timedEpochs())
	e.metrics["cluster.k1_epoch_s"] = k1S
	k2 := traced
	if own {
		k2 = untraced // both sides of the ratio untraced
	}
	e.metrics["cluster.dist_overhead_frac"] = median(k2)/k1S - 1
	return untraced, traced, nil
}
