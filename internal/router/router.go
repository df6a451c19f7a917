// Package router is FlexGraph-Go's scale-out serving tier: one process that
// fans per-vertex inference queries out to N InferenceServer replicas and
// merges the partial replies, presenting the whole fleet as a single
// serve.Querier (and therefore a single HTTP endpoint).
//
// Vertex IDs are consistent-hashed onto the replica ring, so a vertex is
// always answered by the same replica and that replica's versioned
// embedding cache stays hot on its shard — the cache-locality argument for
// sharding. The tier degrades instead of collapsing: replicas that fail are
// evicted from the ring and their shards retried on the next replica
// clockwise (a background prober restores them), admission control sheds
// load with typed *serve.OverloadError (HTTP 429) when the windowed p99
// latency breaks the SLO or the in-flight cap is hit, and hot vertices of
// power-law traffic are spread over extra overflow replicas so one hub
// cannot turn its owner into the fleet straggler.
//
// Because every replica serves the same model over the same graph and the
// per-vertex determinism of the serve planner makes answers independent of
// batch composition, routed answers are bit-identical to a single
// whole-graph server for deterministic-neighborhood models — sharding is a
// pure capacity move, never a numerics one.
package router

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Defaults for the zero-valued Options fields.
const (
	// DefaultMaxInflight is the admission cap on concurrently routed
	// requests.
	DefaultMaxInflight = 4096
	// DefaultHealthEvery is the health-probe period for evicted replicas.
	DefaultHealthEvery = 250 * time.Millisecond
	// DefaultReplicationFactor is how many replicas (primary + overflow)
	// share a hot vertex.
	DefaultReplicationFactor = 2
)

// Replica names one backend of the router: any Querier — a serve.Client
// dialing a remote process, or an in-process *serve.Server in tests and
// single-binary deployments.
type Replica struct {
	// Name labels the replica in errors, spans and metrics; "" defaults
	// to "replica-<index>".
	Name string
	// Querier answers the replica's shard. The router does not close it.
	Querier serve.Querier
}

// Options configures New. Replicas is required; everything else has a
// serviceable zero value.
type Options struct {
	// Replicas is the backend fleet, in ring order. At least one.
	Replicas []Replica
	// VirtualNodes is the per-replica point count on the consistent-hash
	// ring (<= 0 selects DefaultVirtualNodes).
	VirtualNodes int
	// MaxAttempts bounds how many replicas one shard query tries before
	// failing (<= 0 tries every replica once).
	MaxAttempts int
	// SLO is the p99 latency target for admission control: while the
	// windowed p99 of routed requests exceeds it, new requests shed with
	// *serve.OverloadError. 0 disables latency shedding.
	SLO time.Duration
	// SLOWindow is the p99 measurement window (<= 0 selects
	// DefaultSLOWindow).
	SLOWindow time.Duration
	// MaxInflight caps concurrently admitted requests (<= 0 selects
	// DefaultMaxInflight; admission never blocks, it sheds).
	MaxInflight int
	// MaxQueryVertices caps one routed query's vertex count, like
	// serve.Options.MaxQueryVertices (0 selects the serve default, < 0
	// removes the cap).
	MaxQueryVertices int
	// HotThreshold marks a vertex hot at this many arrivals per HotWindow,
	// spreading its queries over ReplicationFactor replicas. 0 disables
	// overflow replication.
	HotThreshold int
	// HotWindow is the hot-vertex measurement window (<= 0 selects
	// DefaultHotWindow).
	HotWindow time.Duration
	// ReplicationFactor is how many replicas share a hot vertex
	// (<= 0 selects DefaultReplicationFactor; capped at the fleet size).
	ReplicationFactor int
	// FailureThreshold evicts a replica from the ring after this many
	// consecutive query failures (<= 0 selects 1 — fail over immediately;
	// the health prober restores the replica when it answers again).
	FailureThreshold int
	// HealthEvery is the probe period for evicted replicas (<= 0 selects
	// DefaultHealthEvery).
	HealthEvery time.Duration
	// Metrics receives the router_* counters and histograms; nil disables.
	Metrics *metrics.Registry
	// Tracer records route and shard spans; nil disables.
	Tracer *trace.Tracer
}

// replicaState is one backend plus its health bookkeeping. health is
// 2·evictions, plus 1 while the replica is on the ring: a success revives the
// replica only if health shows no eviction since its query was dispatched
// (markHealthy), so a reply a dying replica sent cannot put it back.
type replicaState struct {
	name     string
	q        serve.Querier
	health   atomic.Uint64
	failures atomic.Int32

	requests *metrics.Counter
	errs     *metrics.Counter
	hgauge   *metrics.Gauge
}

// Router fans queries out over the replica ring. Create with New, query
// with Query (or over HTTP via Handler/Mux/ListenAndServe), stop with
// Close. Router satisfies serve.Querier, so a router can itself be a
// replica of a higher-level router.
type Router struct {
	reps        []*replicaState
	ring        *ring
	adm         *admission
	hot         *hotTracker
	replication int
	maxAttempts int
	maxVerts    int
	maxInflight int
	failThresh  int32
	healthEvery time.Duration

	inflight atomic.Int64
	rr       atomic.Uint64 // round-robin cursor spreading hot vertices

	reg    *metrics.Registry
	tracer *trace.Tracer

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

var _ serve.Querier = (*Router)(nil)

// New validates opts, builds the hash ring and starts the health prober.
func New(opts Options) (*Router, error) {
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("router: Options.Replicas is required")
	}
	maxAttempts := opts.MaxAttempts
	if maxAttempts <= 0 || maxAttempts > len(opts.Replicas) {
		maxAttempts = len(opts.Replicas)
	}
	maxInflight := opts.MaxInflight
	if maxInflight <= 0 {
		maxInflight = DefaultMaxInflight
	}
	maxVerts := opts.MaxQueryVertices
	if maxVerts == 0 {
		maxVerts = serve.DefaultMaxQueryVertices
	}
	replication := opts.ReplicationFactor
	if replication <= 0 {
		replication = DefaultReplicationFactor
	}
	if replication > len(opts.Replicas) {
		replication = len(opts.Replicas)
	}
	failThresh := opts.FailureThreshold
	if failThresh <= 0 {
		failThresh = 1
	}
	healthEvery := opts.HealthEvery
	if healthEvery <= 0 {
		healthEvery = DefaultHealthEvery
	}
	r := &Router{
		ring:        newRing(len(opts.Replicas), opts.VirtualNodes),
		adm:         newAdmission(opts.SLO, opts.SLOWindow),
		hot:         newHotTracker(opts.HotThreshold, opts.HotWindow),
		replication: replication,
		maxAttempts: maxAttempts,
		maxVerts:    maxVerts,
		maxInflight: maxInflight,
		failThresh:  int32(failThresh),
		healthEvery: healthEvery,
		reg:         opts.Metrics,
		tracer:      opts.Tracer,
		stop:        make(chan struct{}),
	}
	for i, rep := range opts.Replicas {
		if rep.Querier == nil {
			return nil, fmt.Errorf("router: replica %d has a nil Querier", i)
		}
		name := rep.Name
		if name == "" {
			name = fmt.Sprintf("replica-%d", i)
		}
		st := &replicaState{
			name:     name,
			q:        rep.Querier,
			requests: r.reg.Counter(fmt.Sprintf("router_replica_%d_requests_total", i)),
			errs:     r.reg.Counter(fmt.Sprintf("router_replica_%d_errors_total", i)),
			hgauge:   r.reg.Gauge(fmt.Sprintf("router_replica_%d_healthy", i)),
		}
		st.health.Store(1)
		st.hgauge.Set(1)
		r.reps = append(r.reps, st)
	}
	r.reg.Gauge("router_replicas").Set(float64(len(r.reps)))
	r.reg.Gauge("router_replicas_healthy").Set(float64(len(r.reps)))
	r.wg.Add(1)
	go r.healthLoop()
	return r, nil
}

// Close stops the health prober. It does not close the replica Queriers —
// the router does not own them.
func (r *Router) Close() {
	r.closeOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// ModelVersion returns the minimum model version across healthy replicas —
// the version every routed answer is guaranteed to be at least as new as
// during a rollout (0 when no replica is healthy or contacted yet).
func (r *Router) ModelVersion() int64 {
	min := int64(math.MaxInt64)
	for _, st := range r.reps {
		if !st.healthy() {
			continue
		}
		if v := st.q.ModelVersion(); v < min {
			min = v
		}
	}
	if min == math.MaxInt64 {
		return 0
	}
	return min
}

// HealthyReplicas returns how many replicas are currently on the ring.
func (r *Router) HealthyReplicas() int {
	n := 0
	for _, st := range r.reps {
		if st.healthy() {
			n++
		}
	}
	return n
}

// aliveMask snapshots replica health for one routing decision.
func (r *Router) aliveMask() []bool {
	alive := make([]bool, len(r.reps))
	for i, st := range r.reps {
		alive[i] = st.healthy()
	}
	return alive
}

// Query consistent-hashes the vertices over the replica ring, fans the
// shard queries out concurrently, and merges the partial replies back into
// input order. Vertices repeat in the reply exactly as they repeated in the
// request. Failed shards retry on the ring's next replica; admission
// control may shed the whole request with *serve.OverloadError before any
// replica is touched.
func (r *Router) Query(ctx context.Context, vertices []graph.VertexID) (*serve.Reply, error) {
	t0 := time.Now()
	span := r.tracer.Begin(0, 0, int32(len(vertices)), trace.CatRoute, "route")
	defer span.End()
	r.reg.Counter("router_requests_total").Inc()
	r.reg.Counter("router_request_vertices_total").Add(int64(len(vertices)))
	if len(vertices) == 0 {
		return &serve.Reply{ModelVersion: r.ModelVersion()}, nil
	}
	if r.maxVerts > 0 && len(vertices) > r.maxVerts {
		r.reg.Counter("router_errors_total").Inc()
		return nil, &serve.QueryLimitError{Count: len(vertices), Limit: r.maxVerts}
	}

	// Admission: a hard in-flight cap, then the latency SLO gate. Shedding
	// here — before any replica is touched — is what keeps an overloaded
	// fleet answering the traffic it can take instead of timing out all of
	// it.
	if n := r.inflight.Add(1); int(n) > r.maxInflight {
		r.inflight.Add(-1)
		r.reg.Counter("router_shed_total").Inc()
		return nil, &serve.OverloadError{Inflight: int(n), MaxInflight: r.maxInflight}
	}
	defer r.inflight.Add(-1)
	if p99, over := r.adm.overloaded(); over {
		r.reg.Counter("router_shed_total").Inc()
		r.reg.Gauge("router_p99_ns").Set(float64(p99.Nanoseconds()))
		return nil, &serve.OverloadError{P99: p99, SLO: r.adm.slo}
	}

	// Assign each distinct vertex to a replica: the ring owner, or — for
	// vertices the tracker marks hot — round-robin over the primary plus
	// its ring successors, so hub traffic spreads instead of piling onto
	// one replica.
	alive := r.aliveMask()
	assigned := make(map[graph.VertexID]int, len(vertices))
	groups := make(map[int][]graph.VertexID)
	for _, v := range vertices {
		if _, ok := assigned[v]; ok {
			continue
		}
		var rep int
		if r.hot.touch(v) && r.replication > 1 {
			owners := r.ring.successors(v, r.replication, alive)
			rep = owners[int(r.rr.Add(1))%len(owners)]
			r.reg.Counter("router_hot_routed_total").Inc()
		} else {
			var ok bool
			rep, ok = r.ring.owner(v, alive)
			if !ok {
				return nil, fmt.Errorf("router: empty replica ring")
			}
		}
		assigned[v] = rep
		groups[rep] = append(groups[rep], v)
	}
	if r.hot != nil {
		r.reg.Gauge("router_hot_vertices").Set(float64(r.hot.hotCount()))
	}

	// Fan out, one goroutine per shard, all under the caller's context.
	type shard struct {
		rep   int
		verts []graph.VertexID
		reply *serve.Reply
		err   error
	}
	shards := make([]*shard, 0, len(groups))
	for rep := range r.reps {
		if verts, ok := groups[rep]; ok {
			shards = append(shards, &shard{rep: rep, verts: verts})
		}
	}
	if len(shards) > 1 {
		var wg sync.WaitGroup
		for _, sh := range shards {
			wg.Add(1)
			go func(sh *shard) {
				defer wg.Done()
				sh.reply, sh.err = r.queryShard(ctx, sh.rep, sh.verts, span.ID())
			}(sh)
		}
		wg.Wait()
	} else {
		sh := shards[0]
		sh.reply, sh.err = r.queryShard(ctx, sh.rep, sh.verts, span.ID())
	}

	// Merge in input order. Any shard failure fails the whole request with
	// that shard's (typed) error — partial answers would silently violate
	// the "reply rows correspond 1:1 with request vertices" contract.
	version := int64(math.MaxInt64)
	byVertex := make(map[graph.VertexID]serve.Result, len(assigned))
	for _, sh := range shards {
		if sh.err != nil {
			r.reg.Counter("router_errors_total").Inc()
			r.adm.observe(time.Since(t0))
			return nil, sh.err
		}
		if sh.reply.ModelVersion < version {
			version = sh.reply.ModelVersion
		}
		for _, res := range sh.reply.Results {
			byVertex[res.Vertex] = res
		}
	}
	reply := &serve.Reply{ModelVersion: version, Results: make([]serve.Result, len(vertices))}
	for i, v := range vertices {
		res, ok := byVertex[v]
		if !ok {
			r.reg.Counter("router_errors_total").Inc()
			return nil, fmt.Errorf("router: replica dropped vertex %d from its reply", v)
		}
		reply.Results[i] = res
	}
	d := time.Since(t0)
	r.adm.observe(d)
	r.reg.Histogram("router_request_ns").ObserveExemplar(d.Nanoseconds(), span.ID())
	return reply, nil
}

// queryShard runs one shard's query against its primary replica, failing
// over along the ring on retryable errors. The parent span ID threads the
// shard spans under the route span.
func (r *Router) queryShard(ctx context.Context, primary int, verts []graph.VertexID, parent uint64) (*serve.Reply, error) {
	tried := make([]bool, len(r.reps))
	rep := primary
	var lastErr error
	for attempt := 0; attempt < r.maxAttempts && rep >= 0; attempt++ {
		tried[rep] = true
		st := r.reps[rep]
		st.requests.Inc()
		sp := r.tracer.BeginChild(0, 0, int32(len(verts)), trace.CatRoute, "shard:"+st.name, parent)
		seen := st.health.Load()
		reply, err := st.q.Query(ctx, verts)
		sp.End()
		if err == nil {
			r.markHealthy(st, seen)
			return reply, nil
		}
		st.errs.Inc()
		r.reg.Counter("router_replica_errors_total").Inc()
		lastErr = err
		if !retryable(err) || ctx.Err() != nil {
			return nil, err
		}
		r.markFailure(st)
		rep = r.nextReplica(verts[0], tried)
		if rep >= 0 {
			r.reg.Counter("router_retries_total").Inc()
		}
	}
	return nil, fmt.Errorf("router: shard of %d vertices failed on every tried replica (primary %s): %w",
		len(verts), r.reps[primary].name, lastErr)
}

// retryable reports whether a replica error can be cured by asking a
// different replica: infrastructure failures can, request errors cannot.
func retryable(err error) bool {
	var limit *serve.QueryLimitError
	switch {
	case errors.Is(err, serve.ErrBadVertex), errors.As(err, &limit):
		return false
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return false
	default:
		// ErrClosed, transport failures, replica-side overload: the next
		// replica on the ring may well answer.
		return true
	}
}

// nextReplica picks the failover target for a shard keyed by vertex v: the
// first untried healthy replica in ring order from v, falling back to any
// untried replica when none is healthy (its typed error is more useful than
// a synthetic one). Returns -1 when every replica was tried.
func (r *Router) nextReplica(v graph.VertexID, tried []bool) int {
	order := r.ring.successors(v, len(r.reps), nil)
	for _, rep := range order {
		if !tried[rep] && r.reps[rep].healthy() {
			return rep
		}
	}
	for _, rep := range order {
		if !tried[rep] {
			return rep
		}
	}
	return -1
}

// healthy reports whether st is on the ring.
func (st *replicaState) healthy() bool { return st.health.Load()&1 == 1 }

// markFailure counts one failure against st, evicting it from the ring at
// the threshold.
func (r *Router) markFailure(st *replicaState) {
	if h := st.health.Load(); st.failures.Add(1) >= r.failThresh && h&1 == 1 && st.health.CompareAndSwap(h, h+1) {
		st.hgauge.Set(0)
		r.reg.Counter("router_evictions_total").Inc()
		r.reg.Gauge("router_replicas_healthy").Set(float64(r.HealthyReplicas()))
	}
}

// markHealthy records the success of a query or probe dispatched to st when
// its health read seen: it clears st's failure count and restores st to the
// ring — unless st was evicted since, which the success is older than.
func (r *Router) markHealthy(st *replicaState, seen uint64) {
	h := st.health.Load()
	if h>>1 != seen>>1 {
		return
	}
	st.failures.Store(0)
	if h&1 == 0 && st.health.CompareAndSwap(h, h+1) {
		st.hgauge.Set(1)
		r.reg.Counter("router_revivals_total").Inc()
		r.reg.Gauge("router_replicas_healthy").Set(float64(r.HealthyReplicas()))
	}
}

// healthLoop probes evicted replicas every healthEvery and restores the
// ones that answer. Healthy replicas are not probed — live traffic is
// their health check.
func (r *Router) healthLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.healthEvery)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			for _, st := range r.reps {
				if st.healthy() {
					continue
				}
				if seen := st.health.Load(); r.probe(st) == nil {
					r.markHealthy(st, seen)
				}
			}
		}
	}
}

// probe checks one replica: Ping when the Querier supports it (serve.Client
// does, against /v1/healthz), otherwise an empty Query — which every
// Querier answers from its fast path without touching the execution
// pipeline.
func (r *Router) probe(st *replicaState) error {
	ctx, cancel := context.WithTimeout(context.Background(), r.healthEvery)
	defer cancel()
	if p, ok := st.q.(interface{ Ping(context.Context) error }); ok {
		return p.Ping(ctx)
	}
	_, err := st.q.Query(ctx, nil)
	return err
}

// Handler returns the router's inference endpoints — the same HTTP surface
// a single replica serves, so clients cannot tell a fleet from one server.
func (r *Router) Handler() http.Handler {
	return serve.NewHTTPHandler(r, serve.HTTPOptions{})
}

// Mux mounts the inference endpoints alongside the observability surface
// (/metrics, /trace, /trace/chrome, expvar, pprof) on one ServeMux.
func (r *Router) Mux() *http.ServeMux {
	mux := trace.DebugMux(r.tracer, r.reg)
	mux.Handle("/v1/", r.Handler())
	return mux
}

// ListenAndServe binds addr and serves Mux until the returned shutdown func
// is called (graceful drain, see serve.ListenAndServe). The Router itself
// is left running — pair with (*Router).Close.
func (r *Router) ListenAndServe(addr string) (boundAddr string, shutdown func() error, err error) {
	return serve.ListenAndServe(addr, r.Mux())
}
