package flexgraph

import (
	"repro/internal/nau"
	"repro/internal/router"
	"repro/internal/serve"
)

// Online inference. An InferenceServer answers per-vertex queries over a
// trained model: requests are micro-batched (whatever queued while the
// executor was busy runs as one batch, up to ServeOptions.BatchSize vertices;
// an idle server never waits), each batch's k-hop sub-HDG is extracted with
// the model's own
// NeighborSelection, and the forward pass runs over a compact per-batch
// feature universe with a versioned per-layer embedding cache in front.
// For deterministic-neighborhood models the answers are bit-identical to a
// whole-graph Trainer.Predict.
//
//	srv, err := flexgraph.NewInferenceServer(flexgraph.ServeOptions{
//		Model: model, Graph: d.Graph, Features: d.Features,
//	})
//	defer srv.Close()
//	reply, err := srv.Query(ctx, []flexgraph.VertexID{0, 7, 42})
//
// Or over HTTP, sharing one listener with /metrics and /trace:
//
//	addr, shutdown, err := srv.ListenAndServe(":8090")
//
// Every serving tier satisfies Querier — a local InferenceServer, a
// ServeClient dialing a remote replica, and a Router fanning out over a
// replica fleet — so code written against Querier is deployment-agnostic:
//
//	var q flexgraph.Querier = srv                                  // local
//	q = flexgraph.NewServeClient("10.0.0.7:8090", …)               // remote
//	q, _ = flexgraph.NewRouter(flexgraph.RouterOptions{Replicas: …}) // fleet
//
// (*InferenceServer).ListenAndServe's shutdown func drains in-flight requests
// (up to 5 s); /v1/predict bodies are bounded (1 MiB, HTTP 413 past it) and
// queries are capped at ServeOptions.MaxQueryVertices vertices (default 4096,
// HTTP 413; negative disables). The typed errors a Querier returns
// (serve.ErrBadVertex, serve.ErrClosed, *serve.OverloadError,
// *serve.QueryLimitError) are internal names; over HTTP they are the reply's
// machine-readable code. ServeReply rows are private to each reply.
type (
	// InferenceServer is the online inference service.
	InferenceServer = serve.Server
	// ServeOptions configures NewInferenceServer.
	ServeOptions = serve.Options
	// ServeReply answers one inference query.
	ServeReply = serve.Reply
	// ServeResult is one answered query vertex inside a ServeReply.
	ServeResult = serve.Result
	// Querier is the serving abstraction all three tiers satisfy: Query
	// per-vertex in input order, ModelVersion, Close.
	Querier = serve.Querier
	// ServeClient is a Querier over HTTP to one remote replica, mapping
	// non-200 replies back onto the same typed errors a local server
	// returns.
	ServeClient = serve.Client
	// ServeClientOptions configures NewServeClient.
	ServeClientOptions = serve.ClientOptions
	// Router is the scale-out serving tier: consistent-hash fan-out over
	// N replicas with health-checked ring eviction, admission control and
	// hot-shard overflow replication. Satisfies Querier.
	Router = router.Router
	// RouterOptions configures NewRouter.
	RouterOptions = router.Options
	// RouterReplica names one backend Querier of a Router.
	RouterReplica = router.Replica
)

var (
	// NewInferenceServer starts an online inference server over a trained
	// model.
	NewInferenceServer = serve.New
	// NewServeClient returns a Querier speaking to a remote replica (an
	// InferenceServer's or Router's HTTP surface) at a base URL.
	NewServeClient = serve.NewClient
	// NewRouter starts a routing tier over a replica fleet.
	NewRouter = router.New
)

// Serving defaults, re-exported for flag declarations.
const (
	// DefaultServeBatchSize is the micro-batch bound in query vertices.
	DefaultServeBatchSize = serve.DefaultBatchSize
	// DefaultServeCacheCapacity is the embedding cache bound in rows.
	DefaultServeCacheCapacity = serve.DefaultCacheCapacity
	// DefaultServeMaxQueryVertices is the per-request vertex cap.
	DefaultServeMaxQueryVertices = serve.DefaultMaxQueryVertices
	// DefaultRouterVirtualNodes is the per-replica consistent-hash point
	// count.
	DefaultRouterVirtualNodes = router.DefaultVirtualNodes
	// DefaultRouterMaxInflight is the router's admission cap.
	DefaultRouterMaxInflight = router.DefaultMaxInflight
	// DefaultRouterHealthEvery is the evicted-replica probe period.
	DefaultRouterHealthEvery = router.DefaultHealthEvery
	// DefaultRouterReplication is how many replicas share a hot vertex.
	DefaultRouterReplication = router.DefaultReplicationFactor
	// DefaultRouterSLOWindow is the admission p99 measurement window.
	DefaultRouterSLOWindow = router.DefaultSLOWindow
	// DefaultRouterHotWindow is the hot-vertex measurement window.
	DefaultRouterHotWindow = router.DefaultHotWindow
)

// TrainerOptions configures NewTrainerWith. Zero values pick the trainer
// defaults (HA engine, Adam with lr 0.01, no tracer).
type TrainerOptions = nau.TrainerOptions

// NewTrainerWith wires single-machine whole-graph training from options.
var NewTrainerWith = nau.NewTrainerWith
