// Package serve is FlexGraph-Go's online inference subsystem: the request
// path the training stack never had. Queries name vertices; the server
// micro-batches them (flush on batch size or deadline, whichever comes
// first), extracts each batch's k-hop sub-HDG with the same NeighborSelection
// machinery training uses (§4.1 — the NAU stage already takes an explicit
// root set), runs the hybrid engine forward-only over the batch's compact
// feature universe, and answers with per-vertex logits.
//
// A versioned per-layer embedding cache (vertex -> hidden activation) sits
// between batches: hot vertices resolve at the top layer and skip their
// lower-layer neighborhood expansion entirely, PinSage-style. Updating the
// model bumps the version, which invalidates every cached row at once.
//
// Serving is deterministic and — for models whose neighbor selection is
// deterministic (GCN and the other DNFA models, MAGNN, P-GNN, JK-Net) —
// bit-identical to a whole-graph Trainer.Predict on the same vertices: the
// sub-levels preserve whole-graph neighbor order, reductions are
// per-destination sequential, and the dense kernels are row-independent.
// Random-walk models (PinSage) serve deterministically per vertex (seeds
// derive from the vertex ID), but their sampled neighborhoods need not match
// a particular training epoch's HDG.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"context"

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
	// DefaultBatchSize is the flush threshold in query vertices.
	DefaultBatchSize = 64
	// DefaultFlushInterval bounds how long the first request of a batch
	// waits for company.
	DefaultFlushInterval = 2 * time.Millisecond
	// DefaultCacheCapacity is the embedding cache bound in rows.
	DefaultCacheCapacity = 1 << 16
	// DefaultQueueDepth is the pending-request channel capacity.
	DefaultQueueDepth = 256
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
	// BatchSize flushes a micro-batch once this many query vertices are
	// pending (<= 0 selects DefaultBatchSize).
	BatchSize int
	// FlushInterval flushes a non-empty micro-batch after this long even if
	// it is not full (<= 0 selects DefaultFlushInterval).
	FlushInterval time.Duration
	// CacheCapacity bounds the embedding cache in rows; 0 selects
	// DefaultCacheCapacity and a negative value disables caching.
	CacheCapacity int
	// Seed is the base seed for per-vertex neighbor-selection streams of
	// sampling models (PinSage).
	Seed uint64
	// Metrics receives the serve_* counters and histograms; nil disables.
	Metrics *metrics.Registry
	// Tracer records per-request and per-batch spans; nil disables.
	Tracer *trace.Tracer
	// QueueDepth is the pending-request buffer (<= 0 selects
	// DefaultQueueDepth). Beyond it, Query blocks — natural backpressure.
	QueueDepth int
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

// Reply answers one Query.
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
}

// Server is the online inference service. Create with New, query with Query
// (or over HTTP via Handler/Mux), and stop with Close.
type Server struct {
	model  *nau.Model
	graph  *graph.Graph
	feats  *tensor.Tensor
	engine *engine.Engine
	schema *hdg.SchemaTree
	udf    nau.NeighborUDF
	seed   uint64
	// topo answers the planner's in-edge queries; ctx is the one layer
	// context the executor points at each plan in turn (under execMu).
	topo store.GraphStore
	ctx  *nau.Context

	batchSize int
	flush     time.Duration
	maxVerts  int

	cache   *embedCache
	version atomic.Int64

	reg    *metrics.Registry
	tracer *trace.Tracer

	reqCh  chan *request
	execCh chan []*request
	stop   chan struct{}
	wg     sync.WaitGroup

	// closeMu orders request admission against Close: Query enqueues under
	// the read side, Close flips closed and fires stop under the write side,
	// so every accepted request is in reqCh before the dispatcher drains it
	// — a racing send can never strand a request unanswered.
	closeMu sync.RWMutex
	closed  bool

	// execMu serialises batch execution with model updates, so a forward
	// pass never reads weights mid-mutation.
	execMu sync.Mutex

	closeOnce sync.Once
}

// New validates opts and starts the server's dispatcher and executor
// goroutines. The returned server is ready for Query immediately.
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
	flush := opts.FlushInterval
	if flush <= 0 {
		flush = DefaultFlushInterval
	}
	capacity := opts.CacheCapacity
	if capacity == 0 {
		capacity = DefaultCacheCapacity
	}
	queue := opts.QueueDepth
	if queue <= 0 {
		queue = DefaultQueueDepth
	}
	maxVerts := opts.MaxQueryVertices
	if maxVerts == 0 {
		maxVerts = DefaultMaxQueryVertices
	}
	s := &Server{
		model:     opts.Model,
		graph:     opts.Graph,
		feats:     opts.Features,
		engine:    eng,
		schema:    opts.Model.Layers[0].Schema(),
		udf:       opts.Model.Layers[0].NeighborUDF(),
		seed:      opts.Seed,
		topo:      store.NewLocal(store.LocalConfig{Graph: opts.Graph}),
		ctx:       &nau.Context{Graph: opts.Graph, Engine: eng},
		batchSize: batch,
		flush:     flush,
		maxVerts:  maxVerts,
		cache:     newEmbedCache(capacity, opts.Metrics),
		reg:       opts.Metrics,
		tracer:    opts.Tracer,
		reqCh:     make(chan *request, queue),
		execCh:    make(chan []*request, 1),
		stop:      make(chan struct{}),
	}
	s.version.Store(1)
	s.reg.Gauge("serve_model_version").Set(1)
	s.wg.Add(2)
	go s.dispatch()
	go s.execute()
	return s, nil
}

// Close stops the server. Pending and queued requests fail with ErrClosed;
// a batch already executing completes and answers normally. Close is
// idempotent and returns once both background goroutines have exited.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.closeMu.Lock()
		s.closed = true
		close(s.stop)
		s.closeMu.Unlock()
	})
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
	if len(vertices) == 0 {
		return &Reply{ModelVersion: s.version.Load()}, nil
	}
	if s.maxVerts > 0 && len(vertices) > s.maxVerts {
		s.reg.Counter("serve_errors_total").Inc()
		return nil, &QueryLimitError{Count: len(vertices), Limit: s.maxVerts}
	}
	n := s.graph.NumVertices()
	for _, v := range vertices {
		if int(v) < 0 || int(v) >= n {
			s.reg.Counter("serve_errors_total").Inc()
			return nil, fmt.Errorf("%w: %d not in [0,%d)", ErrBadVertex, v, n)
		}
	}
	r := &request{
		ctx:      ctx,
		vertices: vertices,
		done:     make(chan struct{}),
	}
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return nil, ErrClosed
	}
	select {
	case s.reqCh <- r:
		s.closeMu.RUnlock()
	case <-ctx.Done():
		s.closeMu.RUnlock()
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

// dispatch accumulates requests into micro-batches and hands them to the
// executor when the batch fills or the flush deadline fires — whichever
// comes first.
func (s *Server) dispatch() {
	defer s.wg.Done()
	var (
		pending []*request
		verts   int
		timer   *time.Timer
		timerC  <-chan time.Time
	)
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
			timer = nil
			timerC = nil
		}
	}
	flush := func() {
		stopTimer()
		if len(pending) == 0 {
			return
		}
		batch := pending
		pending = nil
		verts = 0
		select {
		case s.execCh <- batch:
		case <-s.stop:
			failAll(batch, ErrClosed)
		}
	}
	for {
		select {
		case r := <-s.reqCh:
			pending = append(pending, r)
			verts += len(r.vertices)
			if verts >= s.batchSize {
				flush()
			} else if timer == nil {
				timer = time.NewTimer(s.flush)
				timerC = timer.C
			}
		case <-timerC:
			timer = nil
			timerC = nil
			flush()
		case <-s.stop:
			stopTimer()
			failAll(pending, ErrClosed)
			// Drain anything that raced past the Query-side stop check.
			for {
				select {
				case r := <-s.reqCh:
					failAll([]*request{r}, ErrClosed)
				default:
					close(s.execCh)
					return
				}
			}
		}
	}
}

// execute runs micro-batches sequentially; requests keep queueing in the
// dispatcher while a batch computes.
func (s *Server) execute() {
	defer s.wg.Done()
	for batch := range s.execCh {
		s.runBatch(batch)
	}
}

// failAll finishes every request with err.
func failAll(batch []*request, err error) {
	for _, r := range batch {
		r.err = err
		close(r.done)
	}
}

// runBatch plans, computes and answers one micro-batch.
func (s *Server) runBatch(batch []*request) {
	s.execMu.Lock()
	defer s.execMu.Unlock()
	t0 := time.Now()
	version := s.version.Load()

	// Drop requests abandoned while waiting for the flush.
	live := batch[:0]
	for _, r := range batch {
		if r.ctx != nil && r.ctx.Err() != nil {
			r.err = r.ctx.Err()
			close(r.done)
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}

	// Union the batch's query vertices in first-seen order.
	var roots []graph.VertexID
	seen := make(map[graph.VertexID]struct{})
	for _, r := range live {
		for _, v := range r.vertices {
			if _, ok := seen[v]; !ok {
				seen[v] = struct{}{}
				roots = append(roots, v)
			}
		}
	}

	span := s.tracer.Begin(0, int32(version), int32(len(roots)), trace.CatServe, "batch")
	defer span.End()
	s.reg.Counter("serve_batches_total").Inc()
	s.reg.Histogram("serve_batch_vertices").Observe(int64(len(roots)))

	checkCancel := func() error {
		for _, r := range live {
			if r.ctx == nil || r.ctx.Err() == nil {
				return nil
			}
		}
		return context.Canceled // every requester is gone
	}

	rows, err := func() ([][]float32, error) {
		plans, err := s.planBatch(roots, version)
		if err != nil {
			return nil, err
		}
		return s.computeBatch(plans, roots, version, checkCancel)
	}()
	if err != nil {
		failAll(live, err)
		return
	}
	byVertex := make(map[graph.VertexID][]float32, len(roots))
	for i, v := range roots {
		byVertex[v] = rows[i]
	}
	for _, r := range live {
		reply := &Reply{ModelVersion: version, Results: make([]Result, len(r.vertices))}
		for i, v := range r.vertices {
			logits := byVertex[v]
			reply.Results[i] = Result{Vertex: v, Logits: logits, Class: argmax(logits)}
		}
		r.reply = reply
		close(r.done)
	}
	s.reg.Histogram("serve_batch_ns").ObserveExemplar(time.Since(t0).Nanoseconds(), span.ID())
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
