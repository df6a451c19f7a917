// Package serve is FlexGraph-Go's online inference subsystem: the request
// path the training stack never had. Queries name vertices; the server
// micro-batches them (an idle executor runs a request at once, a busy one
// finds the requests that queued behind it and runs them together), extracts
// each batch's k-hop sub-HDG with the same NeighborSelection machinery
// training uses (§4.1 — the NAU stage already takes an explicit root set),
// runs the hybrid engine forward-only — the first layer straight off the
// resident feature matrix, the layers above over the batch's compact
// activation universe — and answers with per-vertex logits.
//
// A versioned per-layer embedding cache (vertex -> hidden activation) sits
// between batches: hot vertices resolve at the top layer and skip their
// lower-layer neighborhood expansion entirely, PinSage-style. Updating the
// model bumps the version, which invalidates every cached row at once.
//
// Serving is deterministic and bit-identical to a whole-graph Trainer.Predict
// on the same vertices: the sub-levels preserve whole-graph neighbor order,
// reductions are per-destination sequential, and the dense kernels are
// row-independent. Random-walk models (PinSage) select as every driver does,
// root v by nau.VertexSeed(nau.EpochSeed(Seed, 0), v): they serve what
// Predict answers over the HDG of epoch 0 of a Trainer with the same seed,
// which is also what a mini-batch sampler draws in its epoch 0.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/metrics"
	"repro/internal/nau"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Errors returned by Query.
var (
	// ErrClosed reports a query against a closed server.
	ErrClosed = errors.New("serve: server closed")
	// ErrBadVertex reports a query vertex outside the graph.
	ErrBadVertex = errors.New("serve: vertex out of range")
)

// Defaults for the zero-valued Options fields.
const (
	// DefaultBatchSize is the micro-batch bound in query vertices.
	DefaultBatchSize = 64
	// DefaultCacheCapacity is the embedding cache bound in rows.
	DefaultCacheCapacity = 1 << 16
	// queueDepth is the pending-request channel capacity. Beyond it, Query
	// blocks — natural backpressure.
	queueDepth = 256
	// DefaultMaxQueryVertices bounds one request's vertex count.
	DefaultMaxQueryVertices = 4096
)

// Options configures New. Model, Graph and Features are required; everything
// else has a serviceable zero value.
type Options struct {
	// Model is the trained NAU model to serve. The server reads the
	// parameters during batch execution; use UpdateModel to mutate them.
	Model *nau.Model
	// Graph is the input graph queries are answered over.
	Graph *graph.Graph
	// Features is the [vertices, dim] input feature matrix.
	Features *tensor.Tensor
	// Engine overrides the execution engine; nil selects HA.
	Engine *engine.Engine
	// BatchSize bounds a micro-batch: the executor adds queued requests to
	// one until it holds this many query vertices (<= 0: DefaultBatchSize).
	BatchSize int
	// CacheCapacity bounds the embedding cache in rows; 0 selects
	// DefaultCacheCapacity and a negative value disables caching.
	CacheCapacity int
	// Seed seeds sampling models' (PinSage's) neighbor selection as a
	// Trainer or a mini-batch sampler with this seed selects in its epoch 0.
	Seed uint64
	// Metrics receives the serve_* counters and histograms; nil disables.
	Metrics *metrics.Registry
	// Tracer records per-request and per-batch spans; nil disables.
	Tracer *trace.Tracer
	// MaxQueryVertices caps the vertex count of one Query; past it the
	// request fails with a *QueryLimitError (HTTP 413) instead of
	// monopolising micro-batches. 0 selects DefaultMaxQueryVertices; a
	// negative value removes the cap.
	MaxQueryVertices int
}

// Result is one answered query vertex.
type Result struct {
	Vertex graph.VertexID `json:"vertex"`
	Logits []float32      `json:"logits"`
	// Class is argmax(Logits) — the predicted label for classification
	// models.
	Class int `json:"class"`
}

// Reply answers one Query. Its rows are the caller's own: no other reply,
// and nothing inside the server, shares their storage.
type Reply struct {
	ModelVersion int64    `json:"model_version"`
	Results      []Result `json:"results"`
}

// request is one in-flight Query waiting for its micro-batch.
type request struct {
	ctx      context.Context
	vertices []graph.VertexID
	done     chan struct{}
	reply    *Reply
	err      error

	// From admission to the start of the batch that runs the request: span
	// is the request span's ID, wait its queue_wait child.
	enqueued time.Time
	span     uint64
	wait     trace.Region
}

// Server is the online inference service. Create with New, query with Query
// (or over HTTP via Handler/Mux), and stop with Close.
type Server struct {
	model *nau.Model
	feats *tensor.Tensor
	// topo answers the planner's in-edge queries, sample its selections.
	topo   store.GraphStore
	sample func(frontier []graph.VertexID) ([]hdg.Record, error)

	batchSize int
	maxVerts  int

	cache   *embedCache
	version atomic.Int64

	reg    *metrics.Registry
	tracer *trace.Tracer

	reqCh chan *request
	stop  chan struct{}
	wg    sync.WaitGroup

	// closeMu orders request admission against Close: Query enqueues under
	// the read side, Close flips closed and fires stop under the write side,
	// so every accepted request is in reqCh before the executor drains it —
	// a racing send can never strand a request unanswered.
	closeMu sync.RWMutex
	closed  bool

	// execMu serialises batch execution with model updates, so a forward
	// pass never reads weights mid-mutation. It also guards the executor's
	// working memory below, rebuilt in place batch after batch: ctx is the
	// layer context pointed at each plan in turn, universe the vertex -> row
	// index (root union, then each expansion above the first layer), plans
	// one plan per model layer, miss the frontier being expanded.
	execMu   sync.Mutex
	ctx      *nau.Context
	universe *store.Universe
	plans    []layerPlan
	miss     []graph.VertexID
	// The batch in hand: its requests less the abandoned ones, their
	// distinct vertices in first-seen order, and each requested vertex's
	// (request after request) row in roots.
	live    []*request
	roots   []graph.VertexID
	rootRow []int32
}

// New validates opts and starts the server's executor goroutine. The
// returned server is ready for Query immediately.
func New(opts Options) (*Server, error) {
	if opts.Model == nil || len(opts.Model.Layers) == 0 {
		return nil, fmt.Errorf("serve: Options.Model is required")
	}
	if opts.Graph == nil {
		return nil, fmt.Errorf("serve: Options.Graph is required")
	}
	if opts.Features == nil {
		return nil, fmt.Errorf("serve: Options.Features is required")
	}
	if opts.Features.Rows() != opts.Graph.NumVertices() {
		return nil, fmt.Errorf("serve: features have %d rows for %d vertices",
			opts.Features.Rows(), opts.Graph.NumVertices())
	}
	eng := opts.Engine
	if eng == nil {
		eng = engine.New(engine.StrategyHA)
	}
	batch := opts.BatchSize
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	capacity := opts.CacheCapacity
	if capacity == 0 {
		capacity = DefaultCacheCapacity
	}
	maxVerts := opts.MaxQueryVertices
	if maxVerts == 0 {
		maxVerts = DefaultMaxQueryVertices
	}
	layer0 := opts.Model.Layers[0]
	s := &Server{
		model:     opts.Model,
		feats:     opts.Features,
		topo:      store.NewLocal(store.LocalConfig{Graph: opts.Graph, Schema: layer0.Schema(), UDF: layer0.NeighborUDF()}),
		ctx:       &nau.Context{Graph: opts.Graph, Engine: eng},
		universe:  store.NewUniverse(opts.Graph.NumVertices()),
		plans:     make([]layerPlan, len(opts.Model.Layers)),
		batchSize: batch,
		maxVerts:  maxVerts,
		cache:     newEmbedCache(capacity, opts.Metrics),
		reg:       opts.Metrics,
		tracer:    opts.Tracer,
		reqCh:     make(chan *request, queueDepth),
		stop:      make(chan struct{}),
	}
	epochSeed := nau.EpochSeed(opts.Seed, 0)
	s.sample = func(frontier []graph.VertexID) ([]hdg.Record, error) {
		return s.topo.Sample(context.Background(), frontier, epochSeed)
	}
	s.version.Store(1)
	s.reg.Gauge("serve_model_version").Set(1)
	s.wg.Add(1)
	go s.execute()
	return s, nil
}

// Close stops the server. Queued requests fail with ErrClosed; a batch
// already executing completes and answers normally. Close is idempotent and
// returns once the executor goroutine has exited.
func (s *Server) Close() {
	s.closeMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.stop)
	}
	s.closeMu.Unlock()
	s.wg.Wait()
}

// ModelVersion returns the current model version. It starts at 1 and
// increments on every UpdateModel / InvalidateCache.
func (s *Server) ModelVersion() int64 { return s.version.Load() }

// CacheLen returns the number of resident embedding-cache rows.
func (s *Server) CacheLen() int { return s.cache.Len() }

// InvalidateCache bumps the model version, invalidating every cached
// embedding at once. Use after mutating model weights externally; prefer
// UpdateModel, which also excludes in-flight batches.
func (s *Server) InvalidateCache() {
	v := s.version.Add(1)
	s.reg.Gauge("serve_model_version").Set(float64(v))
}

// UpdateModel runs fn — typically an optimizer step or a checkpoint load
// mutating the served model's parameters — while no batch is executing, then
// bumps the model version so every cached embedding is invalidated. Queries
// arriving during fn wait for it.
func (s *Server) UpdateModel(fn func() error) error {
	s.execMu.Lock()
	defer s.execMu.Unlock()
	if err := fn(); err != nil {
		return err
	}
	s.InvalidateCache()
	return nil
}

// Query answers per-vertex queries, blocking until the micro-batch holding
// them executes. Cancelling ctx abandons the wait (and, if every request in
// the batch is cancelled, aborts the batch's forward pass at the next layer
// boundary); the server may still compute and cache the result.
func (s *Server) Query(ctx context.Context, vertices []graph.VertexID) (*Reply, error) {
	t0 := time.Now()
	span := s.tracer.Begin(0, int32(s.version.Load()), int32(len(vertices)), trace.CatServe, "request")
	defer span.End()
	s.reg.Counter("serve_requests_total").Inc()
	s.reg.Counter("serve_request_vertices_total").Add(int64(len(vertices)))
	if s.maxVerts > 0 && len(vertices) > s.maxVerts {
		s.reg.Counter("serve_errors_total").Inc()
		return nil, &QueryLimitError{Count: len(vertices), Limit: s.maxVerts}
	}
	n := s.topo.NumVertices()
	for _, v := range vertices {
		if int(v) < 0 || int(v) >= n {
			s.reg.Counter("serve_errors_total").Inc()
			return nil, fmt.Errorf("%w: %d not in [0,%d)", ErrBadVertex, v, n)
		}
	}
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return nil, ErrClosed
	}
	if len(vertices) == 0 { // the liveness probe, which a closed server fails
		s.closeMu.RUnlock()
		return &Reply{ModelVersion: s.version.Load()}, nil
	}
	r := &request{
		ctx:      ctx,
		vertices: vertices,
		done:     make(chan struct{}),
		enqueued: time.Now(),
		span:     span.ID(),
		wait:     s.tracer.BeginChild(0, int32(s.version.Load()), int32(len(vertices)), trace.CatServe, "queue_wait", span.ID()),
	}
	select {
	case s.reqCh <- r:
		s.closeMu.RUnlock()
	case <-ctx.Done():
		s.closeMu.RUnlock()
		r.wait.End()
		s.reg.Counter("serve_cancelled_total").Inc()
		return nil, ctx.Err()
	}
	select {
	case <-r.done:
		// Exemplar: the worst request latency keeps its span ID, so the
		// p99 outlier in /metrics links to an actual slow request on the
		// serve timeline.
		s.reg.Histogram("serve_request_ns").ObserveExemplar(time.Since(t0).Nanoseconds(), span.ID())
		if r.err != nil {
			s.reg.Counter("serve_errors_total").Inc()
		}
		return r.reply, r.err
	case <-ctx.Done():
		s.reg.Counter("serve_cancelled_total").Inc()
		return nil, ctx.Err()
	}
}

// execute is the server's one scheduler and executor. It sleeps until a
// request is queued, then runs it with whatever else is already queued, up
// to BatchSize query vertices. Nothing waits for company: an idle server
// answers a lone request at once, and batches form exactly when requests
// arrive faster than batches finish — which is when sharing a pass pays.
func (s *Server) execute() {
	defer s.wg.Done()
	var batch []*request
	for {
		var first *request
		select {
		case first = <-s.reqCh:
		case <-s.stop:
			s.failQueued(nil)
			return
		}
		// Take the lock before the rest of the batch, not after: what queues
		// while a model update (or nothing at all) holds the executor up
		// still joins this batch.
		s.execMu.Lock()
		select {
		case <-s.stop:
			s.execMu.Unlock()
			s.failQueued(first)
			return
		default:
		}
		batch = append(batch[:0], first)
		verts := len(first.vertices)
	fill:
		for verts < s.batchSize {
			select {
			case r := <-s.reqCh:
				batch = append(batch, r)
				verts += len(r.vertices)
			default:
				break fill
			}
		}
		s.runBatch(batch)
		s.execMu.Unlock()
		clear(batch) // answered: the executor must not keep the replies alive
	}
}

// failQueued fails first (when non-nil) and everything still queued with
// ErrClosed; Close has barred admissions, so an empty reqCh stays empty.
func (s *Server) failQueued(first *request) {
	now := time.Now()
	for r := first; ; {
		if r != nil {
			s.dequeued(r, now)
			r.finish(nil, ErrClosed)
		}
		select {
		case r = <-s.reqCh:
		default:
			return
		}
	}
}

// dequeued records that r left the queue at now.
func (s *Server) dequeued(r *request, now time.Time) {
	s.reg.Histogram("serve_queue_wait_ns").ObserveExemplar(now.Sub(r.enqueued).Nanoseconds(), r.span)
	r.wait.End()
}

func (r *request) finish(reply *Reply, err error) {
	r.reply, r.err = reply, err
	close(r.done)
}

// runBatch plans, computes and answers one micro-batch, under execMu.
func (s *Server) runBatch(batch []*request) {
	t0 := time.Now()
	version := s.version.Load()

	// Drop requests abandoned while queued, and union the others' query
	// vertices in first-seen order.
	s.live, s.rootRow = batch[:0], s.rootRow[:0]
	_ = s.universe.Reset(s.roots, nil) // no seeds, nothing to reject
	for _, r := range batch {
		s.dequeued(r, t0)
		if err := r.ctx.Err(); err != nil {
			r.finish(nil, err)
			continue
		}
		s.live = append(s.live, r)
		for _, v := range r.vertices {
			s.rootRow = append(s.rootRow, s.universe.Add(v)) // Query bounds-checked v
		}
	}
	if len(s.live) == 0 {
		return
	}
	// Own the union: the planner resets the universe for each layer.
	s.roots = s.universe.Vertices()

	span := s.tracer.Begin(0, int32(version), int32(len(s.roots)), trace.CatServe, "batch")
	defer span.End()
	s.reg.Counter("serve_batches_total").Inc()
	s.reg.Histogram("serve_batch_vertices").Observe(int64(len(s.roots)))

	err := s.planBatch(s.roots, version)
	var logits *tensor.Tensor // one row per root, pooled
	if err == nil {
		logits, err = s.computeBatch(version, s.abandoned)
	}
	if err != nil {
		for _, r := range s.live {
			r.finish(nil, err)
		}
		return
	}
	// One private backing array per reply: rows never alias another reply's,
	// another result's of the same reply, the cache or pooled storage.
	classes := logits.Cols()
	rows := s.rootRow
	for _, r := range s.live {
		n := len(r.vertices)
		reply := &Reply{ModelVersion: version, Results: make([]Result, n)}
		flat := make([]float32, n*classes)
		for i, v := range r.vertices {
			row := flat[i*classes : (i+1)*classes : (i+1)*classes]
			copy(row, logits.Row(int(rows[i])))
			reply.Results[i] = Result{Vertex: v, Logits: row, Class: argmax(row)}
		}
		rows = rows[n:]
		r.finish(reply, nil)
	}
	tensor.Recycle(logits)
	s.reg.Histogram("serve_batch_ns").ObserveExemplar(time.Since(t0).Nanoseconds(), span.ID())
}

// abandoned reports context.Canceled once every requester of the batch in
// hand is gone, which aborts its forward pass at the next layer boundary.
func (s *Server) abandoned() error {
	for _, r := range s.live {
		if r.ctx.Err() == nil {
			return nil
		}
	}
	return context.Canceled
}

// argmax returns the index of the largest logit (ties break low, -1 for an
// empty row).
func argmax(row []float32) int {
	best := -1
	for i, x := range row {
		if best < 0 || x > row[best] {
			best = i
		}
	}
	return best
}
