package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trace"
)

const (
	queryVertices = 4       // vertices per query
	queryListLen  = 1 << 17 // pre-generated queries; a long closed loop wraps around
	checkSamples  = 256     // open-loop replies compared with Trainer.Predict
	replicas      = 3       // serve.Server replicas behind the router
	seqQueries    = 200     // sequential replays behind each serve/router probe
	servePhases   = 2       // stretches each of a round's two phases runs in
	// hotThreshold marks a vertex hot at this many arrivals per second, so
	// the router spreads the head of the skewed popularity over two replicas.
	hotThreshold = 64
)

// serveCfg is the serving topology and traffic of one run.
type serveCfg struct {
	routed   bool
	cacheCap int
	skew     bool
	rate     float64
	warm     int  // cache warm-up queries replayed during set-up
	train    bool // run the warm-up epochs, so replies can be checked against Predict
}

// ownServeCfg is a serving workload's frozen configuration; probeServeCfg is
// the short routed run the other workloads use to price the serving layers at
// their own dataset and model.
func ownServeCfg(s spec) serveCfg {
	warm := 500
	if s.routed {
		warm = 4000
	}
	return serveCfg{routed: s.routed, cacheCap: s.cacheCap, skew: s.skew, rate: s.rateQPS, warm: warm, train: true}
}

func probeServeCfg(d *dataset.Dataset) serveCfg {
	return serveCfg{routed: true, cacheCap: d.Graph.NumVertices()/8 + 16, skew: true, rate: 300, warm: 300}
}

// serveInst is one serving stack after its cache warm-up.
type serveInst struct {
	d       *dataset.Dataset
	tr      *nau.Trainer // nil unless cfg.train
	model   *nau.Model
	servers []*serve.Server
	regs    []*metrics.Registry // per server; nil entries with metrics off
	rreg    *metrics.Registry
	router  *router.Router
	q       serve.Querier
	qseed   uint64 // draws the queries and the arrival times
	queries [][]graph.VertexID
}

func (si *serveInst) close() {
	if si == nil {
		return
	}
	if si.router != nil {
		si.router.Close()
	}
	for _, s := range si.servers {
		s.Close()
	}
}

// genQueries pre-generates the query list from the seed: 4 vertices each,
// uniform or with the skewed popularity perm[floor(n*u^3)]. The seed draws
// the queries; the popularity ranking perm is the same for every seed (see
// spec.generate: which vertices are hot is part of the workload).
func genQueries(seed uint64, n int, skew bool) [][]graph.VertexID {
	perm := tensor.NewRNG(servingSeed).Perm(n)
	rng := tensor.NewRNG(seed ^ 0x5eed0a11)
	qs := make([][]graph.VertexID, queryListLen)
	flat := make([]graph.VertexID, queryListLen*queryVertices)
	for i := range qs {
		q := flat[i*queryVertices : (i+1)*queryVertices : (i+1)*queryVertices]
		for j := range q {
			if skew {
				u := rng.Float64()
				q[j] = graph.VertexID(perm[int(float64(n)*u*u*u)])
			} else {
				q[j] = graph.VertexID(rng.Intn(n))
			}
		}
		qs[i] = q
	}
	return qs
}

// newServeInst generates the dataset, builds (and optionally warm-up trains)
// the model, draws the queries from qseed, starts the servers and the router,
// and replays the cache warm-up. d may be passed in when the caller already
// generated it.
func newServeInst(e *env, parent uint64, d *dataset.Dataset, sc serveCfg, qseed uint64, tracer *trace.Tracer) (_ *serveInst, err error) {
	si := &serveInst{d: d, qseed: qseed}
	defer func() {
		if err != nil {
			si.close()
		}
	}()
	if si.d == nil {
		sp := e.span(parent, "dataset", "generate")
		si.d, err = e.spec.generate(e.seed, e.tiny)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	d = si.d
	si.model = e.spec.factory(d)(tensor.NewRNG(e.seed))
	if sc.train {
		sp := e.span(parent, "nau", "warmup_train")
		si.tr = nau.NewTrainerWith(si.model, nau.TrainerOptions{
			Graph: d.Graph, Features: d.Features, Labels: d.Labels, TrainMask: d.TrainMask, Seed: e.seed,
		})
		for i := 0; i < warmEpochs; i++ {
			if _, err := si.tr.Epoch(); err != nil {
				sp.End()
				return nil, err
			}
		}
		sp.End()
	}
	si.queries = genQueries(qseed, d.Graph.NumVertices(), sc.skew)

	sp := e.span(parent, "serve", "new_servers")
	n := 1
	if sc.routed {
		n = replicas
	}
	var reps []router.Replica
	for i := 0; i < n; i++ {
		var reg *metrics.Registry
		if tracer != nil {
			reg = metrics.NewRegistry()
		}
		s, err := serve.New(serve.Options{
			Model: si.model, Graph: d.Graph, Features: d.Features,
			CacheCapacity: sc.cacheCap, Seed: e.seed, Metrics: reg, Tracer: tracer,
		})
		if err != nil {
			sp.End()
			return nil, err
		}
		si.servers = append(si.servers, s)
		si.regs = append(si.regs, reg)
		reps = append(reps, router.Replica{Querier: s})
	}
	si.q = si.servers[0]
	if sc.routed {
		if tracer != nil {
			si.rreg = metrics.NewRegistry()
		}
		si.router, err = router.New(router.Options{
			Replicas: reps, HotThreshold: hotThreshold, Metrics: si.rreg, Tracer: tracer,
		})
		if err != nil {
			sp.End()
			return nil, err
		}
		si.q = si.router
	}
	sp.End()

	sp = e.span(parent, "serve", "cache_warmup")
	warm := sc.warm
	if e.tiny {
		warm /= 10
	}
	w := closedLoop(context.Background(), si.q, si.queries, queryListLen-warm, closedCallers, 0, warm)
	sp.End()
	if w.failed > 0 {
		return nil, fmt.Errorf("%d of %d warm-up queries failed", w.failed, warm)
	}
	return si, nil
}

// checker returns the check of an open loop of `total` requests over queries:
// every stride-th reply must equal the whole-graph Trainer.Predict rows bit
// for bit.
func (si *serveInst) checker(queries [][]graph.VertexID, total int) (func(i int, r *serve.Reply) bool, error) {
	ref, err := si.tr.Predict()
	if err != nil {
		return nil, err
	}
	stride := total / checkSamples
	if stride < 1 {
		stride = 1
	}
	return func(i int, r *serve.Reply) bool {
		if i%stride != 0 {
			return true
		}
		want := queries[i%len(queries)]
		if r == nil || len(r.Results) != len(want) {
			return false
		}
		for j, res := range r.Results {
			row := ref.Row(int(want[j]))
			if res.Vertex != want[j] || len(res.Logits) != len(row) {
				return false
			}
			for c := range row {
				if math.Float32bits(row[c]) != math.Float32bits(res.Logits[c]) {
					return false
				}
			}
		}
		return true
	}, nil
}

// openPhase runs one open-loop phase at the configured rate over the query
// list from `first` on. The rates are a third of capacity or less, so a slow
// host does not tip the queue over.
func (si *serveInst) openPhase(e *env, parent uint64, sc serveCfg, dur time.Duration, first int, checked bool) (openResult, error) {
	sp := e.span(parent, "serve", "open_loop")
	defer sp.End()
	queries := si.queries[first%len(si.queries):]
	due := arrivals(tensor.NewRNG(si.qseed^0xa221fa15+uint64(first)), sc.rate, dur)
	if len(due) == 0 {
		return openResult{}, fmt.Errorf("open loop of %v at %g qps has no arrivals", dur, sc.rate)
	}
	var check func(int, *serve.Reply) bool
	if checked {
		var err error
		if check, err = si.checker(queries, len(due)); err != nil {
			return openResult{}, err
		}
	}
	return openLoop(context.Background(), si.q, queries, due, check), nil
}

// serveRound is one round of a serving workload: a fresh stack with its cache
// warm-up, then an open loop at the frozen rate for 40 % of the slice and a
// closed loop for the rest. Each round draws its own queries and arrivals.
func serveRound(e *env, m *meter, _ *roundState, i int, slice time.Duration) error {
	sc := ownServeCfg(e.spec)
	t0 := time.Now()
	si, err := newServeInst(e, 0, nil, sc, e.seed+uint64(i)<<32, nil)
	if err != nil {
		return err
	}
	defer si.close()
	m.setup(time.Since(t0).Seconds(), m.interval())
	// Both phases run in servePhases stretches with the host read between
	// them, while no request is in flight. An open-loop stretch lasts at least
	// 20 expected arrivals, so that a smoke-sized slice has any.
	openDur := max(slice*4/10/servePhases, time.Duration(20/sc.rate*float64(time.Second)))
	var sent, failed, overCap int // sent is also the next query's index
	var lateMS float64
	for p := 0; p < servePhases; p++ {
		o, err := si.openPhase(e, 0, sc, openDur, sent, true)
		if err != nil {
			return err
		}
		m.ops(o.latMS, 0, 0, m.interval())
		sent, failed, overCap = sent+len(o.latMS), failed+o.failed, overCap+o.overCap
		lateMS = math.Max(lateMS, o.lateMaxMS)
	}
	for p := 0; p < servePhases; p++ {
		c := closedLoop(context.Background(), si.q, si.queries, sent, closedCallers, slice*6/10/servePhases, 0)
		m.ops(nil, float64(c.done), c.wall, m.interval())
		sent, failed = sent+c.done+c.failed, failed+c.failed
	}
	e.ops += sent
	e.failed += failed
	if failed > 0 {
		e.problems = append(e.problems, fmt.Sprintf("round %d: %d of %d queries failed or were wrong (%d over the open loop's in-flight cap)",
			i, failed, sent, overCap))
	}
	late, _ := e.detail["gen_late_ms_max"].(float64)
	e.detail["gen_late_ms_max"] = math.Max(late, lateMS)
	e.detail["op"] = "query"
	e.detail["throughput_unit"] = "queries/s (closed loop, 64 callers)"
	e.detail["rate_qps"] = sc.rate
	return nil
}

// counterSum adds one counter over the per-server registries.
func counterSum(regs []*metrics.Registry, name string) float64 {
	var sum int64
	for _, r := range regs {
		sum += r.Counter(name).Load()
	}
	return float64(sum)
}

// seqP50 replays the head of the query list one at a time — seqQueries of
// them, fewer (at least 20) when they take longer than four probe budgets —
// and returns the median latency in milliseconds.
func (e *env) seqP50(q serve.Querier, queries [][]graph.VertexID) (float64, error) {
	lat := make([]float64, 0, seqQueries)
	start := time.Now()
	for i := 0; i < seqQueries && (i < 20 || time.Since(start) < 4*e.probeBudget()); i++ {
		t0 := time.Now()
		if _, err := q.Query(context.Background(), queries[i]); err != nil {
			return 0, err
		}
		lat = append(lat, time.Since(t0).Seconds()*1000)
	}
	return median(lat), nil
}

// serveLayers runs a serving stack with the program's tracer and registries
// on and derives the serve.* metrics (and router.* when routed) from the
// counters and spans they expose, plus sequential probes of the cold path, a
// model update and the HTTP hop. A serving workload (own) measures itself: it
// first runs an untraced open-loop slice of the same length, its operations
// count and its replies are checked. Any other caller gets the short routed
// probe stack on dataset d.
func serveLayers(e *env, parent uint64, d *dataset.Dataset, own bool, tracer *trace.Tracer) (lm map[string]float64, untraced, traced []float64, err error) {
	sp := e.span(parent, "serve", "serve_layers")
	defer sp.End()
	sc, dur := probeServeCfg(d), e.slice(own)
	if own {
		sc = ownServeCfg(e.spec)
		base, err := newServeInst(e, sp.ID(), d, sc, e.seed, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		open, err := base.openPhase(e, sp.ID(), sc, dur, 0, false)
		base.close()
		if err != nil {
			return nil, nil, nil, err
		}
		untraced = open.latMS
		e.ops += len(open.latMS)
		e.failed += open.failed
	}
	si, err := newServeInst(e, sp.ID(), d, sc, e.seed, tracer)
	if err != nil {
		return nil, nil, nil, err
	}
	defer si.close()

	hits0 := counterSum(si.regs, "serve_cache_hits_total")
	miss0 := counterSum(si.regs, "serve_cache_misses_total")
	mark := tracer.Now()
	open, err := si.openPhase(e, sp.ID(), sc, dur, 0, own)
	if err != nil {
		return nil, nil, nil, err
	}
	traced = open.latMS
	if own {
		e.ops += len(open.latMS)
		e.failed += open.failed
		e.detail["gen_late_ms_max"] = open.lateMaxMS
	}
	lm = map[string]float64{}
	hits := counterSum(si.regs, "serve_cache_hits_total") - hits0
	miss := counterSum(si.regs, "serve_cache_misses_total") - miss0
	if hits+miss > 0 {
		lm["serve.cache_hit_ratio"] = hits / (hits + miss)
	}
	// Batch sizes and execution times are the program's own "batch" spans
	// (phase = distinct vertices) recorded during the slice.
	var bVerts, bMS []float64
	for _, s := range tracer.Spans() {
		if s.Start >= mark && s.Cat == trace.CatServe && s.Name == "batch" {
			bVerts = append(bVerts, float64(s.Phase))
			bMS = append(bMS, float64(s.Dur)/1e6)
		}
	}
	if len(bMS) == 0 {
		return nil, nil, nil, fmt.Errorf("traced serving slice recorded no batch span")
	}
	lm["serve.batch_vertices_p50"] = median(bVerts)
	lm["serve.batch_ms_p50"] = median(bMS)
	lm["serve.batches_per_s"] = float64(len(bMS)) / open.wall
	lm["serve.queue_wait_ms_p50"] = median(open.latMS) - median(bMS)

	// Sequential probes against replica 0, bypassing the router.
	s0 := si.servers[0]
	ps := e.span(sp.ID(), "serve", "cold_query")
	s0.InvalidateCache()
	lm["serve.cold_query_ms"], err = e.seqP50(s0, si.queries)
	ps.End()
	if err != nil {
		return nil, nil, nil, err
	}

	ps = e.span(sp.ID(), "serve", "update_model")
	var ckpt bytes.Buffer
	if err := nn.SaveParams(&ckpt, si.model.Parameters()); err != nil {
		return nil, nil, nil, err
	}
	upd := timeMedian(e.probeBudget(), 5, func() {
		if uerr := s0.UpdateModel(func() error {
			return nn.LoadParams(bytes.NewReader(ckpt.Bytes()), si.model.Parameters())
		}); uerr != nil {
			err = uerr
		}
	})
	ps.End()
	if err != nil {
		return nil, nil, nil, err
	}
	lm["serve.update_model_ms"] = upd * 1000

	ps = e.span(sp.ID(), "serve", "http_hop")
	lm["serve.http_hop_ms"], err = httpHop(e, s0, si.queries)
	ps.End()
	if err != nil {
		return nil, nil, nil, err
	}

	if si.router != nil {
		if err := routerLayers(e, sp.ID(), si, tracer, lm); err != nil {
			return nil, nil, nil, err
		}
	}
	return lm, untraced, traced, nil
}

// httpHop is what one loopback HTTP hop adds: sequential replays through a
// serve.Client minus the same replays straight into the server.
func httpHop(e *env, s *serve.Server, queries [][]graph.VertexID) (float64, error) {
	addr, shutdown, err := serve.ListenAndServe("127.0.0.1:0", s.Handler())
	if err != nil {
		return 0, err
	}
	client := serve.NewClient(addr, serve.ClientOptions{})
	hop, err := func() (float64, error) {
		if _, err := e.seqP50(s, queries); err != nil { // fill the cache again
			return 0, err
		}
		direct, err := e.seqP50(s, queries)
		if err != nil {
			return 0, err
		}
		viaHTTP, err := e.seqP50(client, queries)
		return viaHTTP - direct, err
	}()
	client.Close()
	if serr := shutdown(); err == nil {
		err = serr
	}
	return hop, err
}

// routerLayers adds the router.* metrics to lm: a sequential replay whose
// route spans and shard child spans give the routing overhead, and the
// router's own counters for fan-out, balance, hot-vertex routing, retries and
// shedding.
func routerLayers(e *env, parent uint64, si *serveInst, tracer *trace.Tracer, lm map[string]float64) error {
	sp := e.span(parent, "router", "router_layers")
	defer sp.End()
	mark := tracer.Now()
	if _, err := e.seqP50(si.router, si.queries); err != nil {
		return err
	}
	routeDur := map[uint64]int64{}
	slowest := map[uint64]int64{}
	for _, s := range tracer.Spans() {
		if s.Start < mark || s.Cat != trace.CatRoute {
			continue
		}
		if s.Name == "route" {
			routeDur[s.ID] = s.Dur
		} else if strings.HasPrefix(s.Name, "shard:") && s.Dur > slowest[s.Parent] {
			slowest[s.Parent] = s.Dur
		}
	}
	var over []float64
	for id, dur := range routeDur {
		if sh, ok := slowest[id]; ok {
			over = append(over, float64(dur-sh)/1e6)
		}
	}
	if len(over) == 0 {
		return fmt.Errorf("sequential router replay recorded no route span with a shard child")
	}
	lm["router.route_overhead_ms"] = median(over)

	reg := si.rreg
	requests := float64(reg.Counter("router_requests_total").Load())
	var shardQueries, maxShare float64
	per := make([]float64, len(si.servers))
	for i := range per {
		per[i] = float64(reg.Counter(fmt.Sprintf("router_replica_%d_requests_total", i)).Load())
		shardQueries += per[i]
	}
	for _, p := range per {
		maxShare = math.Max(maxShare, p/shardQueries)
	}
	lm["router.shards_per_query"] = shardQueries / requests
	lm["router.replica_share_max"] = maxShare
	lm["router.hot_routed_frac"] = float64(reg.Counter("router_hot_routed_total").Load()) /
		float64(reg.Counter("router_request_vertices_total").Load())
	lm["router.retries"] = float64(reg.Counter("router_retries_total").Load())
	lm["router.shed"] = float64(reg.Counter("router_shed_total").Load())
	return nil
}
