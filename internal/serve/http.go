package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/graph"
	"repro/internal/trace"
)

// HTTP-surface defaults.
const (
	// DefaultMaxBodyBytes bounds a /v1/predict request body. A request
	// naming DefaultMaxQueryVertices vertices is ~50 KiB of JSON, so 1 MiB
	// leaves generous headroom while keeping a hostile body from buffering
	// unbounded memory.
	DefaultMaxBodyBytes = 1 << 20
	// DefaultDrainTimeout bounds how long the shutdown func returned by
	// ListenAndServe waits for in-flight requests before closing hard.
	DefaultDrainTimeout = 5 * time.Second
)

// predictRequest is the /v1/predict JSON body.
type predictRequest struct {
	Vertices []graph.VertexID `json:"vertices"`
}

// errorReply is the JSON body of every non-200 answer. Code is a stable
// machine-readable discriminator ("bad_vertex", "closed", "overload",
// "too_many_vertices", "body_too_large", "bad_request", "internal") that
// Client uses to map the reply back onto the typed error the remote Querier
// returned; the numeric fields carry that error's payload.
type errorReply struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
	P99NS int64  `json:"p99_ns,omitempty"`
	SLONS int64  `json:"slo_ns,omitempty"`
	Count int    `json:"count,omitempty"`
	Limit int    `json:"limit,omitempty"`
}

// HTTPOptions configures NewHTTPHandler.
type HTTPOptions struct {
	// MaxBodyBytes bounds the /v1/predict request body via
	// http.MaxBytesReader (<= 0 selects DefaultMaxBodyBytes).
	MaxBodyBytes int64
}

// NewHTTPHandler returns the inference endpoints over any Querier — a local
// Server, a remote Client, or a Router; the three tiers share one HTTP
// surface:
//
//	POST /v1/predict  {"vertices":[0,7,42]} -> Reply JSON
//	GET  /v1/healthz  {"status":"ok","model_version":N}
//
// The request context propagates into Query, so a dropped HTTP client
// abandons its slot. Typed Querier errors map onto status codes (and back,
// in Client): ErrBadVertex -> 400, *QueryLimitError -> 413, *OverloadError
// -> 429, ErrClosed -> 503.
func NewHTTPHandler(q Querier, opts HTTPOptions) http.Handler {
	maxBody := opts.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, errorReply{Error: "POST required", Code: "method"})
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		var req predictRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeJSON(w, http.StatusRequestEntityTooLarge, errorReply{
					Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
					Code:  "body_too_large",
					Limit: int(tooBig.Limit),
				})
				return
			}
			writeJSON(w, http.StatusBadRequest, errorReply{
				Error: fmt.Sprintf("bad request body: %v", err), Code: "bad_request",
			})
			return
		}
		reply, err := q.Query(r.Context(), req.Vertices)
		if err != nil {
			writeQueryError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, reply)
	})
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeJSON(w, http.StatusMethodNotAllowed, errorReply{Error: "GET required", Code: "method"})
			return
		}
		// The Querier's liveness probe: a closed server answers 503.
		probe, err := q.Query(r.Context(), nil)
		if err != nil {
			writeQueryError(w, err)
			return
		}
		body := map[string]any{
			"status":        "ok",
			"model_version": probe.ModelVersion,
		}
		if c, ok := q.(interface{ CacheLen() int }); ok {
			body["cache_rows"] = c.CacheLen()
		}
		writeJSON(w, http.StatusOK, body)
	})
	return mux
}

// writeQueryError maps a Querier error onto its HTTP status and error code.
func writeQueryError(w http.ResponseWriter, err error) {
	var overload *OverloadError
	var limit *QueryLimitError
	switch {
	case errors.Is(err, ErrBadVertex):
		writeJSON(w, http.StatusBadRequest, errorReply{Error: err.Error(), Code: "bad_vertex"})
	case errors.As(err, &limit):
		writeJSON(w, http.StatusRequestEntityTooLarge, errorReply{
			Error: err.Error(), Code: "too_many_vertices",
			Count: limit.Count, Limit: limit.Limit,
		})
	case errors.As(err, &overload):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorReply{
			Error: err.Error(), Code: "overload",
			P99NS: overload.P99.Nanoseconds(), SLONS: overload.SLO.Nanoseconds(),
			Count: overload.Inflight, Limit: overload.MaxInflight,
		})
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorReply{Error: err.Error(), Code: "closed"})
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The waiting client is usually gone; 503 tells a proxy to retry
		// elsewhere.
		writeJSON(w, http.StatusServiceUnavailable, errorReply{Error: err.Error(), Code: "canceled"})
	default:
		writeJSON(w, http.StatusInternalServerError, errorReply{Error: err.Error(), Code: "internal"})
	}
}

// Handler returns the server's inference endpoints (see NewHTTPHandler).
func (s *Server) Handler() http.Handler {
	return NewHTTPHandler(s, HTTPOptions{})
}

// Mux mounts the inference endpoints alongside the observability surface
// (trace.DebugMux: /metrics, /trace, /trace/chrome, expvar, pprof) on one
// ServeMux, so a single listener serves both queries and introspection.
func (s *Server) Mux() *http.ServeMux {
	mux := trace.DebugMux(s.tracer, s.reg)
	mux.Handle("/v1/", s.Handler())
	return mux
}

// ListenAndServe binds addr and serves Mux until shutdown is called. It
// returns the bound address (useful with ":0") and a shutdown func that
// stops accepting connections and drains in-flight requests for up to
// DefaultDrainTimeout before closing hard; the inference Server itself is
// left running — pair with (*Server).Close.
func (s *Server) ListenAndServe(addr string) (boundAddr string, shutdown func() error, err error) {
	return ListenAndServe(addr, s.Mux())
}

// ListenAndServe binds addr and serves handler until the returned shutdown
// func is called. Shutdown is graceful: the listener closes immediately,
// in-flight requests get up to DefaultDrainTimeout to complete, and only
// then are remaining connections dropped. The serving tiers (Server.
// ListenAndServe, Router.ListenAndServe, cmd binaries) all bind through
// here so they share the drain behaviour.
func ListenAndServe(addr string, handler http.Handler) (boundAddr string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: handler}
	go func() { _ = srv.Serve(ln) }()
	shutdown = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), DefaultDrainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return errors.Join(err, srv.Close())
		}
		return nil
	}
	return ln.Addr().String(), shutdown, nil
}

// writeJSON answers one request with a JSON body.
func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}
