package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/rpc"
	"repro/internal/tensor"
)

// Store opcodes, carried in Message.Layer. KindSample carries the graph
// queries; feature gathers reuse KindFeatures. A negative Layer in a reply
// is the server rejecting the mirrored opcode.
const (
	opSample   int32 = 1
	opInEdges  int32 = 2
	opKHop     int32 = 3
	opFeatures int32 = 4
)

// DefaultRequestWindow is the default cap on outstanding requests per
// Remote: deep enough to keep a pipelined link busy, small enough to bound
// the server-side queue.
const DefaultRequestWindow = 4

// DefaultRecvDeadline bounds how long a Remote waits for one reply.
const DefaultRecvDeadline = 10 * time.Second

// RemoteOptions configures a Remote store client.
type RemoteOptions struct {
	// Peer is the server's rank on the shared transport.
	Peer int
	// Window caps the outstanding pipelined requests (<= 0 selects
	// DefaultRequestWindow). With Window > 1, several prefetch workers keep
	// requests in flight at once and the link latency amortises across
	// them.
	Window int
	// RecvDeadline bounds the wait for each reply; expiry surfaces as a
	// *FetchError wrapping rpc.ErrRecvTimeout. <= 0 selects
	// DefaultRecvDeadline.
	RecvDeadline time.Duration
	// NumVertices and Dim describe the remote graph and feature shard; the
	// store is a dumb pipe and does not handshake metadata.
	NumVertices int
	Dim         int
}

// Remote implements GraphStore and FeatureStore over an rpc.Transport
// against a Server on another rank. Requests are tagged with a pipelined
// request ID (carried in Message.Epoch) and up to Window of them may be
// outstanding; replies are demultiplexed by ID, so responses may arrive in
// any order and concurrent prefetch workers share one link. All methods are
// safe for concurrent use.
type Remote struct {
	tr   rpc.Transport
	opts RemoteOptions
	sem  chan struct{}

	mu      sync.Mutex
	nextID  int32
	pending map[int32]chan *rpc.Message
	err     error

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewRemote builds a store client over tr and starts its receive loop. Close
// the Remote (not just the transport) to release it.
func NewRemote(tr rpc.Transport, opts RemoteOptions) *Remote {
	if opts.Window <= 0 {
		opts.Window = DefaultRequestWindow
	}
	if opts.RecvDeadline <= 0 {
		opts.RecvDeadline = DefaultRecvDeadline
	}
	r := &Remote{
		tr:      tr,
		opts:    opts,
		sem:     make(chan struct{}, opts.Window),
		pending: make(map[int32]chan *rpc.Message),
		done:    make(chan struct{}),
	}
	r.wg.Add(1)
	go r.recvLoop()
	return r
}

// NumVertices returns the configured remote vertex count.
func (r *Remote) NumVertices() int { return r.opts.NumVertices }

// FeatureDim returns the configured remote feature width.
func (r *Remote) FeatureDim() int { return r.opts.Dim }

// Close tears the client down: the transport is closed, the receive loop
// drained, and every in-flight call fails.
func (r *Remote) Close() error {
	err := r.tr.Close()
	r.fail(fmt.Errorf("store: remote closed"))
	r.wg.Wait()
	return err
}

// fail records the terminal error and releases every waiter.
func (r *Remote) fail(err error) {
	r.closeOnce.Do(func() {
		r.mu.Lock()
		r.err = err
		r.mu.Unlock()
		close(r.done)
	})
}

// recvPoll bounds each blocking receive so shutdown is observed promptly
// even on transports whose per-endpoint Close does not unblock Recv (the
// loopback network).
const recvPoll = 200 * time.Millisecond

// recvLoop demultiplexes replies to their waiting calls by request ID. A
// transport error is terminal: the link is dead, so every outstanding and
// future call fails with it.
func (r *Remote) recvLoop() {
	defer r.wg.Done()
	for {
		m, err := r.tr.RecvTimeout(recvPoll)
		if errors.Is(err, rpc.ErrRecvTimeout) {
			select {
			case <-r.done:
				return
			default:
				continue
			}
		}
		if err != nil {
			r.fail(err)
			return
		}
		r.mu.Lock()
		ch := r.pending[m.Epoch]
		r.mu.Unlock()
		if ch != nil {
			ch <- m // cap 1; at most one reply per ID
		}
	}
}

// call sends one request and waits for its reply, holding a window slot for
// the duration. op names the query for error reporting; verts is its size.
func (r *Remote) call(ctx context.Context, opName string, verts int, m *rpc.Message) (*rpc.Message, error) {
	fetchErr := func(err error) error {
		return &FetchError{Op: opName, Verts: verts, Err: err}
	}
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, fetchErr(ctx.Err())
	case <-r.done:
		return nil, fetchErr(r.terminal())
	}
	defer func() { <-r.sem }()

	ch := make(chan *rpc.Message, 1)
	r.mu.Lock()
	id := r.nextID
	r.nextID++
	r.pending[id] = ch
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.pending, id)
		r.mu.Unlock()
	}()

	m.From = int32(r.tr.Rank())
	m.Epoch = id
	if err := r.tr.Send(r.opts.Peer, m); err != nil {
		return nil, fetchErr(err)
	}

	timer := time.NewTimer(r.opts.RecvDeadline)
	defer timer.Stop()
	select {
	case reply := <-ch:
		if reply.Layer < 0 {
			return nil, fetchErr(fmt.Errorf("store: server rejected %s query", opName))
		}
		return reply, nil
	case <-ctx.Done():
		return nil, fetchErr(ctx.Err())
	case <-timer.C:
		return nil, fetchErr(rpc.ErrRecvTimeout)
	case <-r.done:
		return nil, fetchErr(r.terminal())
	}
}

// terminal returns the receive loop's terminal error.
func (r *Remote) terminal() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// InEdges queries the server for each destination's 1-hop in-neighbors.
func (r *Remote) InEdges(ctx context.Context, dsts []graph.VertexID, visit func(nbrs []graph.VertexID)) error {
	reply, err := r.call(ctx, "in_edges", len(dsts), &rpc.Message{
		Kind: rpc.KindSample, Layer: opInEdges, IDs: vertsToIDs(dsts),
	})
	if err != nil {
		return err
	}
	if len(reply.Counts) != len(dsts) {
		return &FetchError{Op: "in_edges", Verts: len(dsts),
			Err: fmt.Errorf("store: reply has %d counts, want %d", len(reply.Counts), len(dsts))}
	}
	off := 0
	for _, n := range reply.Counts {
		if n < 0 || off+int(n) > len(reply.IDs) {
			return &FetchError{Op: "in_edges", Verts: len(dsts),
				Err: fmt.Errorf("store: malformed in_edges reply")}
		}
		visit(reply.IDs[off : off+int(n)]) // VertexID is int32: a view, no copy
		off += int(n)
	}
	return nil
}

// Sample asks the server to run its configured neighbor UDF over the roots
// with per-vertex seeds derived from epochSeed.
func (r *Remote) Sample(ctx context.Context, roots []graph.VertexID, epochSeed uint64) ([]hdg.Record, error) {
	reply, err := r.call(ctx, "sample", len(roots), &rpc.Message{
		Kind: rpc.KindSample, Layer: opSample, IDs: vertsToIDs(roots),
		Counts: []int32{int32(uint32(epochSeed)), int32(uint32(epochSeed >> 32))},
	})
	if err != nil {
		return nil, err
	}
	recs, derr := decodeRecords(reply.IDs)
	if derr != nil {
		return nil, &FetchError{Op: "sample", Verts: len(roots), Err: derr}
	}
	return recs, nil
}

// KHopInduced asks the server for the induced k-hop subgraph of the roots.
func (r *Remote) KHopInduced(ctx context.Context, roots []graph.VertexID, hops int) (*Subgraph, error) {
	reply, err := r.call(ctx, "khop", len(roots), &rpc.Message{
		Kind: rpc.KindSample, Layer: opKHop, IDs: vertsToIDs(roots), Dim: int32(hops),
	})
	if err != nil {
		return nil, err
	}
	n := int(reply.Dim)
	if n < 0 || n > len(reply.IDs) || len(reply.Counts) != n {
		return nil, &FetchError{Op: "khop", Verts: len(roots),
			Err: fmt.Errorf("store: malformed khop reply")}
	}
	verts := idsToVerts(reply.IDs[:n])
	srcIdx := append([]int32(nil), reply.IDs[n:]...)
	ptr := make([]int64, n+1)
	for i, c := range reply.Counts {
		if c < 0 {
			return nil, &FetchError{Op: "khop", Verts: len(roots),
				Err: fmt.Errorf("store: malformed khop reply")}
		}
		ptr[i+1] = ptr[i] + int64(c)
	}
	if int(ptr[n]) != len(srcIdx) {
		return nil, &FetchError{Op: "khop", Verts: len(roots),
			Err: fmt.Errorf("store: malformed khop reply")}
	}
	return &Subgraph{Vertices: verts, Adj: &engine.Adjacency{
		NumDst: n, NumSrc: n, DstPtr: ptr, SrcIdx: srcIdx,
	}}, nil
}

// Gather fetches feature rows, labels and mask bits for the vertices.
func (r *Remote) Gather(ctx context.Context, verts []graph.VertexID) (*FeatureSlice, error) {
	reply, err := r.call(ctx, "features", len(verts), &rpc.Message{
		Kind: rpc.KindFeatures, Layer: opFeatures, IDs: vertsToIDs(verts),
	})
	if err != nil {
		return nil, err
	}
	n := len(verts)
	if len(reply.Counts) != 2*n || int(reply.Dim) != r.opts.Dim || len(reply.Data) != n*r.opts.Dim {
		return nil, &FetchError{Op: "features", Verts: n,
			Err: fmt.Errorf("store: malformed features reply")}
	}
	fs := &FeatureSlice{
		Feats:  tensorFromRows(reply.Data, n, r.opts.Dim),
		Labels: append([]int32(nil), reply.Counts[:n]...),
		Mask:   make([]bool, n),
	}
	for i, b := range reply.Counts[n:] {
		fs.Mask[i] = b != 0
	}
	return fs, nil
}

// ServerOptions configures a store Server.
type ServerOptions struct {
	// Workers is the number of requests handled concurrently (<= 0 selects
	// 2) — with a pipelined client window, overlapping handlers hide the
	// per-request compute behind the link latency of the next request.
	Workers int
}

// Server answers Remote store queries over a transport, backed by a Local
// store. Run Serve on its own goroutine; it returns when the transport
// closes.
type Server struct {
	local *Local
	tr    rpc.Transport
	opts  ServerOptions
	wg    sync.WaitGroup
	done  chan struct{}
	once  sync.Once
}

// NewServer builds a store server over tr backed by local.
func NewServer(local *Local, tr rpc.Transport, opts ServerOptions) *Server {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	return &Server{local: local, tr: tr, opts: opts, done: make(chan struct{})}
}

// Serve receives and answers queries until the transport fails, the server
// is closed, or the network shuts down, then drains its in-flight handlers
// and returns the transport's error (nil on a clean Close).
func (s *Server) Serve() error {
	sem := make(chan struct{}, s.opts.Workers)
	for {
		m, err := s.tr.RecvTimeout(recvPoll)
		if errors.Is(err, rpc.ErrRecvTimeout) {
			select {
			case <-s.done:
				s.wg.Wait()
				return nil
			default:
				continue
			}
		}
		if err != nil {
			s.wg.Wait()
			return err
		}
		if m.Kind != rpc.KindSample && m.Kind != rpc.KindFeatures {
			continue
		}
		sem <- struct{}{}
		s.wg.Add(1)
		go func(m *rpc.Message) {
			defer func() { <-sem; s.wg.Done() }()
			s.handle(m)
		}(m)
	}
}

// Close stops Serve and closes the transport.
func (s *Server) Close() error {
	s.once.Do(func() { close(s.done) })
	return s.tr.Close()
}

// handle answers one query. Vertex IDs come off the wire, so they are
// checked against the graph before any op indexes with them; a request
// carrying one outside [0, NumVertices) gets the error reply (the client's
// *FetchError) like any other rejected query. Reply send errors are
// dropped: the client is gone and its deadline will fire.
func (s *Server) handle(m *rpc.Message) {
	reply := &rpc.Message{Kind: m.Kind, From: int32(s.tr.Rank()), Epoch: m.Epoch, Layer: m.Layer}
	ctx := context.Background()
	op := m.Layer
	if !s.idsInGraph(m.IDs) {
		op = -1 // rejected the way an unknown opcode is
	}
	switch op {
	case opInEdges:
		reply.Counts = make([]int32, 0, len(m.IDs))
		// A Local store's InEdges fails only on a cancelled context, and
		// this one never is.
		_ = s.local.InEdges(ctx, idsToVerts(m.IDs), func(ns []graph.VertexID) {
			reply.Counts = append(reply.Counts, int32(len(ns)))
			reply.IDs = append(reply.IDs, ns...)
		})
	case opSample:
		if len(m.Counts) != 2 {
			reply.Layer = -m.Layer
			break
		}
		seed := uint64(uint32(m.Counts[0])) | uint64(uint32(m.Counts[1]))<<32
		recs, err := s.local.Sample(ctx, idsToVerts(m.IDs), seed)
		if err != nil {
			reply.Layer = -m.Layer
			break
		}
		reply.IDs = encodeRecords(recs)
	case opKHop:
		sub, err := s.local.KHopInduced(ctx, idsToVerts(m.IDs), int(m.Dim))
		if err != nil {
			reply.Layer = -m.Layer
			break
		}
		n := len(sub.Vertices)
		reply.Dim = int32(n)
		reply.Counts = make([]int32, n)
		for i := 0; i < n; i++ {
			reply.Counts[i] = int32(sub.Adj.DstPtr[i+1] - sub.Adj.DstPtr[i])
		}
		reply.IDs = make([]int32, 0, n+len(sub.Adj.SrcIdx))
		reply.IDs = append(reply.IDs, vertsToIDs(sub.Vertices)...)
		reply.IDs = append(reply.IDs, sub.Adj.SrcIdx...)
	case opFeatures:
		fs, err := s.local.Gather(ctx, idsToVerts(m.IDs))
		if err != nil {
			reply.Layer = -m.Layer
			break
		}
		n := len(m.IDs)
		reply.Dim = int32(s.local.FeatureDim())
		reply.Data = fs.Feats.Data()
		reply.Counts = make([]int32, 2*n)
		copy(reply.Counts, fs.Labels)
		for i, b := range fs.Mask {
			if b {
				reply.Counts[n+i] = 1
			}
		}
	default:
		reply.Layer = -m.Layer
	}
	_ = s.tr.Send(int(m.From), reply)
}

// idsInGraph reports whether every wire-supplied vertex ID names a vertex.
func (s *Server) idsInGraph(ids []int32) bool {
	n := s.local.NumVertices()
	for _, id := range ids {
		if id < 0 || int(id) >= n {
			return false
		}
	}
	return true
}

// encodeRecords flattens neighbor-selection records for the wire as
// [root, type, n, nei_0..nei_{n-1}] groups.
func encodeRecords(recs []hdg.Record) []int32 {
	total := 0
	for _, r := range recs {
		total += 3 + len(r.Nei)
	}
	out := make([]int32, 0, total)
	for _, r := range recs {
		out = append(out, int32(r.Root), int32(r.Type), int32(len(r.Nei)))
		out = append(out, vertsToIDs(r.Nei)...)
	}
	return out
}

// decodeRecords inverts encodeRecords, rejecting malformed input.
func decodeRecords(ids []int32) ([]hdg.Record, error) {
	var recs []hdg.Record
	for off := 0; off < len(ids); {
		if off+3 > len(ids) {
			return nil, fmt.Errorf("store: truncated record header")
		}
		root, typ, n := ids[off], ids[off+1], ids[off+2]
		off += 3
		if n < 0 || off+int(n) > len(ids) {
			return nil, fmt.Errorf("store: record leaf count %d out of range", n)
		}
		recs = append(recs, hdg.Record{
			Root: graph.VertexID(root),
			Type: int(typ),
			Nei:  idsToVerts(ids[off : off+int(n)]),
		})
		off += int(n)
	}
	return recs, nil
}

// tensorFromRows wraps a wire payload into a [rows, cols] tensor.
func tensorFromRows(data []float32, rows, cols int) *tensor.Tensor {
	t := tensor.New(rows, cols)
	copy(t.Data(), data)
	return t
}

func vertsToIDs(vs []graph.VertexID) []int32 {
	out := make([]int32, len(vs))
	for i, v := range vs {
		out[i] = int32(v)
	}
	return out
}

func idsToVerts(ids []int32) []graph.VertexID {
	out := make([]graph.VertexID, len(ids))
	for i, v := range ids {
		out[i] = graph.VertexID(v)
	}
	return out
}
