// Package collective is FlexGraph-Go's typed collective-communication
// plane: epoch/layer-fenced collectives over an rpc.Transport. It factors
// the patterns the distributed runtime (§5) is built from out of the worker
// loop into a first-class, testable subsystem:
//
//   - Exchange — the per-peer scatter/gather behind partial-aggregation
//     tasks, raw-feature synchronisation and plan exchange, with optional
//     compute overlap while messages are in flight (pipeline processing);
//   - AllReduce — a chunked ring all-reduce for gradient synchronisation
//     that ships at most 2·|payload| bytes per worker regardless of the
//     cluster size k (the broadcast it replaces ships (k−1)·|payload|);
//   - Barrier — a plain phase fence.
//
// Every collective is tagged with a Fence (epoch, phase). A fenced mailbox
// demultiplexes the transport stream: messages ahead of the current receive
// are buffered (bounded), messages behind the fence epoch are a typed
// *FenceError. All traffic is counted per message kind into a
// metrics.Breakdown, so Fig. 15-style accounting can split plan, feature,
// partial and gradient bytes.
package collective

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// Fence identifies one synchronisation phase: the training epoch plus a
// phase-local tag (the aggregation-call index for feature sync and plan
// exchange; ring steps derive their own tags). Two collectives of the same
// message kind must never share a fence within an epoch.
type Fence struct {
	Epoch int32
	Phase int32
}

// Comm provides fenced collectives for one worker of a cluster. It is not
// safe for concurrent collective calls — like an MPI communicator, one
// collective at a time, in the same order on every worker.
type Comm struct {
	tr          rpc.Transport
	bd          *metrics.Breakdown
	mb          *mailbox
	ringChunk   int
	recvTimeout time.Duration

	// tracer records fence-wait and all-reduce spans (nil = off).
	tracer *trace.Tracer
	// fenceWait observes nanoseconds blocked waiting for peers at each
	// collective fence — the per-rank straggler-wait histogram (nil = off).
	fenceWait *metrics.Histogram
	// ops counts collective operations started on this Comm (nil = off).
	ops *metrics.Counter
}

// DefaultRingChunk is the ring all-reduce segment size in float32 words
// (64 KiB frames): small enough to pipeline the reduce and distribute
// phases, large enough to amortise frame headers.
const DefaultRingChunk = 16384

// defaultPendingLimit bounds the out-of-phase mailbox buffer. A healthy
// synchronous cluster keeps at most a few messages in flight per peer; the
// bound exists to turn a diverged cluster into an error instead of
// unbounded memory growth.
const defaultPendingLimit = 1 << 16

// Option configures a Comm.
type Option func(*Comm)

// WithRingChunk sets the all-reduce segment size in float32 words.
func WithRingChunk(words int) Option {
	return func(c *Comm) {
		if words > 0 {
			c.ringChunk = words
		}
	}
}

// WithPendingLimit bounds the mailbox's out-of-phase buffer.
func WithPendingLimit(n int) Option {
	return func(c *Comm) {
		if n > 0 {
			c.mb.limit = n
		}
	}
}

// WithRecvTimeout bounds how long a collective receive waits for its peers
// (0, the default, waits forever). On expiry the collective fails with a
// typed *TimeoutError naming the fence and the missing ranks instead of
// hanging on a dead or wedged peer. Exchange and Barrier apply the bound to
// the whole fence; the ring all-reduce applies it per ring step, so the
// clock resets on progress.
func WithRecvTimeout(d time.Duration) Option {
	return func(c *Comm) {
		if d > 0 {
			c.recvTimeout = d
		}
	}
}

// WithTracer records a span for every collective fence wait (category
// trace.CatFence) and all-reduce (trace.CatComm) into t, stamps each
// outgoing frame with the operation's span ID, and links received frames'
// span IDs back into the local span — the cross-rank causal edges of the
// merged Perfetto timeline. A nil tracer leaves tracing off.
func WithTracer(t *trace.Tracer) Option {
	return func(c *Comm) {
		c.tracer = t
		c.mb.tracer = t
	}
}

// WithMetrics registers this communicator's hot-path instruments on r: the
// per-rank fence-wait histogram "collective.fence_wait_ns.rank<i>" (time
// blocked waiting for peers — the straggler wait) and the operation counter
// "collective.ops.rank<i>". A nil registry leaves metrics off.
func WithMetrics(r *metrics.Registry) Option {
	return func(c *Comm) {
		if r == nil {
			return
		}
		rank := c.tr.Rank()
		c.fenceWait = r.Histogram(fmt.Sprintf("collective.fence_wait_ns.rank%d", rank))
		c.ops = r.Counter(fmt.Sprintf("collective.ops.rank%d", rank))
	}
}

// New wraps a transport into a collective communicator. All sent and
// received bytes are accounted per message kind into bd.
func New(tr rpc.Transport, bd *metrics.Breakdown, opts ...Option) *Comm {
	c := &Comm{
		tr:        tr,
		bd:        bd,
		mb:        &mailbox{tr: tr, bd: bd, limit: defaultPendingLimit},
		ringChunk: DefaultRingChunk,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// classOf maps a wire kind to its traffic-accounting class.
func classOf(k rpc.MsgKind) metrics.MsgClass {
	switch k {
	case rpc.KindFeatures:
		return metrics.ClassFeatures
	case rpc.KindPartials:
		return metrics.ClassPartials
	case rpc.KindGrads:
		return metrics.ClassGrads
	case rpc.KindBarrier:
		return metrics.ClassBarrier
	case rpc.KindPlan:
		return metrics.ClassPlan
	case rpc.KindAbort:
		return metrics.ClassAbort
	case rpc.KindTelemetry:
		return metrics.ClassTelemetry
	default:
		return -1
	}
}

// send stamps the fence onto m and ships it, counting traffic.
func (c *Comm) send(to int, f Fence, m *rpc.Message) error {
	m.From = int32(c.tr.Rank())
	m.Epoch = f.Epoch
	m.Layer = f.Phase
	c.bd.CountSent(classOf(m.Kind), m.NumBytes())
	return c.tr.Send(to, m)
}

// Exchange is the per-peer scatter/gather: build(q) produces the message
// for peer q (the Comm stamps sender and fence), sends run in the
// background, and one message of recvKind at fence f is collected from
// every peer. If overlap is non-nil it runs on the calling goroutine while
// messages are in flight — the §5 pipeline-processing hook. Peers may send
// different kinds than they receive (partials vs raw features are
// negotiated per direction at plan exchange); recvKind names what THIS
// worker expects.
func (c *Comm) Exchange(f Fence, recvKind rpc.MsgKind, build func(peer int) *rpc.Message, overlap func()) ([]*rpc.Message, error) {
	k, rank := c.tr.Size(), c.tr.Rank()
	if k == 1 {
		if overlap != nil {
			overlap()
		}
		return nil, nil
	}
	// The fence span opens before the sends so its ID can be stamped onto
	// every outgoing frame — the receiver's matching span links back to it,
	// which is what joins the k per-rank timelines into one causal tree.
	// The fence-wait histogram still measures only the blocked receive.
	c.ops.Inc()
	var span trace.Region
	if c.tracer != nil {
		span = c.tracer.Begin(int32(rank), f.Epoch, f.Phase, trace.CatFence, recvKind.String())
	}
	spanID := span.ID()
	// Sends run in the background; a failed send is stored where the
	// receive loop's interrupt hook can see it, so a worker whose peers are
	// gone fails fast instead of sitting in recvN waiting for messages that
	// will never arrive.
	var sendFailed atomic.Pointer[error]
	sendDone := make(chan error, 1)
	go func() {
		var errs []error
		for q := 0; q < k; q++ {
			if q == rank {
				continue
			}
			m := build(q)
			m.Trace = spanID
			if err := c.send(q, f, m); err != nil {
				errs = append(errs, err)
			}
		}
		err := errors.Join(errs...)
		if err != nil {
			sendFailed.Store(&err)
		}
		sendDone <- err
	}()
	if overlap != nil {
		overlap()
	}
	interrupt := func() error {
		if perr := sendFailed.Load(); perr != nil {
			return *perr
		}
		return nil
	}
	// The fence wait — time blocked until every peer delivers — is the
	// straggler signal: it becomes a per-rank span and a histogram sample.
	var waitStart time.Time
	if c.fenceWait != nil {
		waitStart = time.Now()
	}
	msgs, recvErr := c.mb.recvN(recvKind, f, k-1, c.recvTimeout, interrupt)
	if c.fenceWait != nil {
		c.fenceWait.ObserveSince(waitStart)
	}
	for _, m := range msgs {
		span.Link(m.Trace)
	}
	span.End()
	if recvErr != nil {
		// Do not wait for the sender goroutine: with a dead peer it may be
		// blocked in a write that only transport teardown can unblock.
		return nil, recvErr
	}
	if err := <-sendDone; err != nil {
		return nil, err
	}
	// Return in sender-rank order, not arrival order: callers fold the
	// messages into float accumulations, and a deterministic order keeps
	// every worker's results bit-reproducible across runs and cluster
	// timings.
	sort.Slice(msgs, func(i, j int) bool { return msgs[i].From < msgs[j].From })
	return msgs, recvErr
}

// Barrier blocks until every worker has entered the same fence.
func (c *Comm) Barrier(f Fence) error {
	_, err := c.Exchange(f, rpc.KindBarrier, func(int) *rpc.Message {
		return &rpc.Message{Kind: rpc.KindBarrier}
	}, nil)
	return err
}

// Abort broadcasts a fail-fast control message to every peer: this worker's
// epoch failed at fence f and the cluster must tear down. Sends are
// best-effort — peers that are already gone are skipped — and the abort is
// recorded locally so every later collective on this Comm fails immediately
// with a typed *AbortError instead of waiting on a cluster that no longer
// exists.
func (c *Comm) Abort(f Fence) {
	k, rank := c.tr.Size(), c.tr.Rank()
	if c.mb.aborted == nil {
		c.mb.aborted = &AbortError{From: int32(rank), Fence: f}
	}
	// The abort broadcast carries its span ID so every survivor's
	// "abort-recv" span parents back to the worker that initiated teardown —
	// a crash's blast radius reads straight off the merged timeline.
	span := c.tracer.Begin(int32(rank), f.Epoch, f.Phase, trace.CatComm, "abort")
	id := span.ID()
	for q := 0; q < k; q++ {
		if q == rank {
			continue
		}
		// Best-effort: a dead peer's send failure must not stop the
		// broadcast to the survivors.
		_ = c.send(q, f, &rpc.Message{Kind: rpc.KindAbort, Trace: id})
	}
	span.End()
}

// SendTo ships one fenced message point-to-point (the telemetry plane's
// clock-sync and snapshot-push primitive). The Comm stamps sender and
// fence; the caller owns kind, payload and the Trace span ID.
func (c *Comm) SendTo(to int, f Fence, m *rpc.Message) error {
	return c.send(to, f, m)
}

// RecvFrom receives the single message of the given kind at fence f from
// one peer, honouring the Comm's receive timeout.
func (c *Comm) RecvFrom(from int, f Fence, kind rpc.MsgKind) (*rpc.Message, error) {
	return c.mb.recvFrom(kind, f, from, c.recvTimeout)
}

// Gather collects one message of the given kind at fence f from every peer
// on root (returned in sender-rank order); every other rank contributes m
// (its Kind is forced to kind) and returns nil messages. Like all
// collectives, every rank must call it at the same fence.
func (c *Comm) Gather(f Fence, kind rpc.MsgKind, root int, m *rpc.Message) ([]*rpc.Message, error) {
	c.ops.Inc()
	if c.tr.Rank() != root {
		m.Kind = kind
		return nil, c.send(root, f, m)
	}
	msgs, err := c.mb.recvN(kind, f, c.tr.Size()-1, c.recvTimeout, nil)
	if err != nil {
		return nil, err
	}
	sort.Slice(msgs, func(i, j int) bool { return msgs[i].From < msgs[j].From })
	return msgs, nil
}

// DrainKind collects messages of one kind that are already buffered or
// arrive within wait, ignoring fences and the sticky abort state — the
// teardown-time receive the rank-0 collector uses to pick up
// flight-recorder dumps from survivors after the cluster has failed. All
// errors (including a closed transport) end the drain silently; messages of
// other kinds arriving during the drain are dropped, since the cluster is
// past the point of consuming them.
func (c *Comm) DrainKind(kind rpc.MsgKind, wait time.Duration) []*rpc.Message {
	var out []*rpc.Message
	rest := c.mb.pending[:0]
	for _, m := range c.mb.pending {
		if m.Kind == kind {
			out = append(out, m)
		} else {
			rest = append(rest, m)
		}
	}
	c.mb.pending = rest
	deadline := time.Now().Add(wait)
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		m, err := c.tr.RecvTimeout(remaining)
		if err != nil {
			break
		}
		c.bd.CountRecv(classOf(m.Kind), m.NumBytes())
		if m.Kind == kind {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].From < out[j].From })
	return out
}
