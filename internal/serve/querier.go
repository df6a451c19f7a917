package serve

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
)

// Querier is the serving abstraction every tier of the inference stack
// satisfies: a local Server (in-process execution over a whole graph or a
// shard), a Client (HTTP to one remote replica), and a router.Router (a fan
// of replicas behind consistent hashing). Because the three are drop-in
// interchangeable, anything written against Querier — the HTTP handler, the
// health prober, a test — serves unchanged at every scale.
//
// Query answers per-vertex queries in input order. An empty vertex slice is
// a cheap liveness probe: it returns the current model version without
// touching the execution path, and fails once the Querier is closed (a
// closed Server with ErrClosed, which /v1/healthz answers with 503).
// ModelVersion reports the serving model's
// version (a Client reports the last version it observed; a Router the
// minimum across healthy replicas). Close releases the Querier's own
// resources; it does not propagate to injected dependencies.
type Querier interface {
	Query(ctx context.Context, vertices []graph.VertexID) (*Reply, error)
	ModelVersion() int64
	Close()
}

// The three serving tiers must stay drop-in interchangeable.
var (
	_ Querier = (*Server)(nil)
	_ Querier = (*Client)(nil)
)

// OverloadError reports admission-control rejection: the serving tier is
// past its latency SLO or its in-flight cap and shed the request instead of
// queueing it into a collapse. Over HTTP it maps to status 429. Callers
// should back off and retry; the shedding window is short.
type OverloadError struct {
	// P99 is the windowed p99 request latency that tripped the SLO gate
	// (zero when the in-flight cap tripped instead).
	P99 time.Duration
	// SLO is the configured p99 target (zero when the in-flight cap
	// tripped).
	SLO time.Duration
	// Inflight and MaxInflight describe the admission cap at rejection
	// time (zero when the SLO gate tripped).
	Inflight    int
	MaxInflight int
}

func (e *OverloadError) Error() string {
	if e.SLO > 0 {
		return fmt.Sprintf("serve: overloaded: p99 %v exceeds SLO %v", e.P99, e.SLO)
	}
	return fmt.Sprintf("serve: overloaded: %d requests in flight (cap %d)", e.Inflight, e.MaxInflight)
}

// QueryLimitError reports a query naming more vertices than the serving
// tier accepts in one request (Options.MaxQueryVertices). Over HTTP it maps
// to status 413. Split the query and resubmit.
type QueryLimitError struct {
	Count int
	Limit int
}

func (e *QueryLimitError) Error() string {
	return fmt.Sprintf("serve: query names %d vertices, limit %d", e.Count, e.Limit)
}
