package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// ClientOptions configures NewClient.
type ClientOptions struct {
	// Timeout bounds one Query round trip when the caller's context
	// carries no deadline (<= 0 selects DefaultClientTimeout).
	Timeout time.Duration
}

// DefaultClientTimeout bounds a Query round trip when neither the context
// nor ClientOptions.Timeout sets one — a remote replica that stops
// answering must surface as a typed error, not a hang.
const DefaultClientTimeout = 30 * time.Second

// Client is a Querier over HTTP: it speaks the /v1/predict and /v1/healthz
// surface a remote Server (or Router) exposes and maps non-200 answers back
// onto the same typed errors a local Server returns — ErrBadVertex,
// ErrClosed, *OverloadError, *QueryLimitError — so callers cannot tell a
// remote replica from an in-process one by error shape.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration
	version atomic.Int64
	closed  atomic.Bool
}

// NewClient returns a Querier speaking to the replica at baseURL (e.g.
// "http://10.0.0.7:8090"; a bare host:port gets "http://" prepended).
func NewClient(baseURL string, opts ClientOptions) *Client {
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      &http.Client{},
		timeout: opts.Timeout,
	}
	if c.timeout <= 0 {
		c.timeout = DefaultClientTimeout
	}
	return c
}

// Query sends the vertices to the remote replica's /v1/predict and returns
// its Reply. Errors the replica answered with come back typed; transport
// failures come back wrapped with the replica address.
func (c *Client) Query(ctx context.Context, vertices []graph.VertexID) (*Reply, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	body, err := json.Marshal(predictRequest{Vertices: vertices})
	if err != nil {
		return nil, fmt.Errorf("serve: client %s: encode: %w", c.base, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("serve: client %s: %w", c.base, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("serve: client %s: %w", c.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(c.base, resp)
	}
	reply, err := readReply(resp.Body, maxReplyBytes(len(vertices)), vertices)
	if err != nil {
		return nil, &ReplyError{Replica: c.base, Err: err}
	}
	c.version.Store(reply.ModelVersion)
	return reply, nil
}

// ReplyError reports a 200 answer from a replica that is not a reply to the
// query sent: a body past its size bound, malformed JSON, or results that do
// not name the asked vertices in order, one each, with logits of one width
// and Class their argmax. The router treats it like any replica failure and
// asks the next replica.
type ReplyError struct {
	// Replica is the replica's base URL.
	Replica string
	// Err says what is wrong with the reply.
	Err error
}

func (e *ReplyError) Error() string {
	return fmt.Sprintf("serve: client %s: bad reply: %v", e.Replica, e.Err)
}

// Unwrap exposes the cause (a JSON syntax error, say) to errors.Is/As.
func (e *ReplyError) Unwrap() error { return e.Err }

// maxReplyBytes bounds the /v1/predict reply to a query of n vertices: the
// envelope plus 64 KiB of JSON per vertex, room for thousands of logits each.
func maxReplyBytes(n int) int64 { return 1<<16 + int64(n)<<16 }

// readReply decodes a /v1/predict reply of at most limit bytes and checks it
// answers vertices: one result per asked vertex, in the order asked, all
// logits one width, each Class the argmax of its logits.
func readReply(body io.Reader, limit int64, vertices []graph.VertexID) (*Reply, error) {
	raw, err := io.ReadAll(io.LimitReader(body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(raw)) > limit {
		return nil, fmt.Errorf("body exceeds %d bytes", limit)
	}
	var reply Reply
	if err := json.Unmarshal(raw, &reply); err != nil {
		return nil, err
	}
	if len(reply.Results) != len(vertices) {
		return nil, fmt.Errorf("%d results for %d vertices", len(reply.Results), len(vertices))
	}
	for i, r := range reply.Results {
		switch {
		case r.Vertex != vertices[i]:
			return nil, fmt.Errorf("result %d is vertex %d, asked %d", i, r.Vertex, vertices[i])
		case len(r.Logits) != len(reply.Results[0].Logits):
			return nil, fmt.Errorf("result %d has %d logits, result 0 %d", i, len(r.Logits), len(reply.Results[0].Logits))
		case r.Class != argmax(r.Logits):
			return nil, fmt.Errorf("result %d has class %d, its logits' argmax is %d", i, r.Class, argmax(r.Logits))
		}
	}
	return &reply, nil
}

// Ping checks the replica's /v1/healthz and records the model version it
// reports. The router's health loop uses it to restore evicted replicas.
func (c *Client) Ping(ctx context.Context) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/healthz", nil)
	if err != nil {
		return fmt.Errorf("serve: client %s: %w", c.base, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("serve: client %s: %w", c.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(c.base, resp)
	}
	var health struct {
		ModelVersion int64 `json:"model_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		return fmt.Errorf("serve: client %s: decode healthz: %w", c.base, err)
	}
	c.version.Store(health.ModelVersion)
	return nil
}

// ModelVersion returns the model version the replica last reported through
// a Query reply or Ping (0 before first contact).
func (c *Client) ModelVersion() int64 { return c.version.Load() }

// Close marks the client closed (subsequent calls fail with ErrClosed) and
// releases its connection pool.
func (c *Client) Close() {
	c.closed.Store(true)
	c.hc.CloseIdleConnections()
}

// decodeError reconstructs the typed error behind a non-200 reply from its
// status code and the errorReply body the handler wrote.
func decodeError(base string, resp *http.Response) error {
	var er errorReply
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	_ = json.Unmarshal(raw, &er)
	msg := er.Error
	if msg == "" {
		msg = strings.TrimSpace(string(raw))
		if msg == "" {
			msg = resp.Status
		}
	}
	switch {
	case er.Code == "bad_vertex" || resp.StatusCode == http.StatusBadRequest && strings.Contains(msg, ErrBadVertex.Error()):
		return fmt.Errorf("serve: client %s: %w: %s", base, ErrBadVertex, msg)
	case er.Code == "overload" || resp.StatusCode == http.StatusTooManyRequests:
		return &OverloadError{
			P99: time.Duration(er.P99NS), SLO: time.Duration(er.SLONS),
			Inflight: er.Count, MaxInflight: er.Limit,
		}
	case er.Code == "too_many_vertices":
		return &QueryLimitError{Count: er.Count, Limit: er.Limit}
	case er.Code == "closed" || resp.StatusCode == http.StatusServiceUnavailable:
		return fmt.Errorf("serve: client %s: %w", base, ErrClosed)
	default:
		return fmt.Errorf("serve: client %s: HTTP %d: %s", base, resp.StatusCode, msg)
	}
}
