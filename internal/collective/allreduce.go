package collective

import (
	"fmt"
	"time"

	"repro/internal/rpc"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Ring all-reduce.
//
// The payload is cut into ringChunk-word segments that flow around the ring
// in two pipelined phases:
//
//	reduce:     0 → 1 → … → k−1   each hop adds the local contribution
//	distribute: k−1 → 0 → … → k−2  the finished sums continue around
//
// Chunk c therefore crosses every link at most twice, so each worker
// transmits at most 2·|payload| bytes (+ frame headers) regardless of k —
// versus (k−1)·|payload| for the broadcast this replaces. Chunking lets the
// distribute phase of early segments overlap the reduce phase of later
// ones, keeping all links busy like the classic ring algorithm.
//
// Accumulation is strictly in rank order (((x₀+x₁)+x₂)+…), which makes the
// result bit-identical on every worker and bit-identical to
// AllReduceBroadcast's rank-ordered sum — float addition is commutative, so
// "received partial + own chunk" equals the canonical order at every hop.

// ring step tags packed into the message Layer field, namespaced per chunk
// and phase on top of the caller's fence phase.
func reduceTag(base int32, chunk int) int32     { return base + int32(2*chunk) }
func distributeTag(base int32, chunk int) int32 { return base + int32(2*chunk+1) }

// recvStep is a ring-step receive with fence-wait accounting: the time
// blocked on the ring predecessor lands in the same per-rank straggler-wait
// histogram the fenced collectives feed.
func (c *Comm) recvStep(kind rpc.MsgKind, f Fence, from int) (*rpc.Message, error) {
	if c.fenceWait == nil {
		return c.mb.recvFrom(kind, f, from, c.recvTimeout)
	}
	t0 := time.Now()
	m, err := c.mb.recvFrom(kind, f, from, c.recvTimeout)
	c.fenceWait.ObserveSince(t0)
	return m, err
}

// AllReduce sums data elementwise across all workers, in place, using the
// chunked ring algorithm. kind tags the wire messages (gradient sync uses
// rpc.KindGrads). At most one AllReduce of a given kind may run per fence.
func (c *Comm) AllReduce(f Fence, data []float32, kind rpc.MsgKind) error {
	k, rank := c.tr.Size(), c.tr.Rank()
	if k == 1 || len(data) == 0 {
		return nil
	}
	c.ops.Inc()
	// Deferred via closure, not value: Link mutates the region after the
	// defer statement, and a value defer would capture a link-free copy.
	span := c.tracer.Begin(int32(rank), f.Epoch, f.Phase, trace.CatComm, "allreduce")
	defer func() { span.End() }()
	spanID := span.ID()
	last := k - 1
	next, prev := (rank+1)%k, (rank-1+k)%k
	// Cap the chunk count well below the transports' inbox capacity so the
	// ring's send backpressure can never close a blocking cycle.
	const maxRingChunks = 512
	chunkWords := c.ringChunk
	if lo := (len(data) + maxRingChunks - 1) / maxRingChunks; chunkWords < lo {
		chunkWords = lo
	}
	nchunks := (len(data) + chunkWords - 1) / chunkWords

	segment := func(ci int) []float32 {
		lo := ci * chunkWords
		hi := min(lo+chunkWords, len(data))
		return data[lo:hi]
	}

	// Reduce phase: rank 0 seeds each chunk, every later rank folds its
	// contribution in and forwards; the last rank ends up with the full
	// sum and immediately starts the chunk on its distribute lap.
	for ci := 0; ci < nchunks; ci++ {
		seg := segment(ci)
		if rank > 0 {
			m, err := c.recvStep(kind, Fence{f.Epoch, reduceTag(f.Phase, ci)}, prev)
			if err != nil {
				return err
			}
			if len(m.Data) != len(seg) {
				return fmt.Errorf("collective: ring chunk %d from worker %d has %d words, want %d",
					ci, prev, len(m.Data), len(seg))
			}
			span.Link(m.Trace)
			tensor.AddUnrolled(seg, m.Data)
			m.Release()
		}
		tag := reduceTag(f.Phase, ci)
		if rank == last {
			tag = distributeTag(f.Phase, ci)
		}
		if err := c.send(next, Fence{f.Epoch, tag}, &rpc.Message{Kind: kind, Data: seg, Dim: 1, Trace: spanID}); err != nil {
			return err
		}
	}
	if rank == last {
		return nil
	}
	// Distribute phase: receive the finished sums from the ring
	// predecessor and forward them until the lap closes at rank k−2.
	for ci := 0; ci < nchunks; ci++ {
		seg := segment(ci)
		m, err := c.recvStep(kind, Fence{f.Epoch, distributeTag(f.Phase, ci)}, prev)
		if err != nil {
			return err
		}
		if len(m.Data) != len(seg) {
			return fmt.Errorf("collective: ring chunk %d from worker %d has %d words, want %d",
				ci, prev, len(m.Data), len(seg))
		}
		span.Link(m.Trace)
		copy(seg, m.Data)
		m.Release()
		if next != last {
			if err := c.send(next, Fence{f.Epoch, distributeTag(f.Phase, ci)}, &rpc.Message{Kind: kind, Data: seg, Dim: 1, Trace: spanID}); err != nil {
				return err
			}
		}
	}
	return nil
}

// AllReduceBroadcast is the pre-refactor gradient synchronisation: every
// worker ships its full payload to every peer — (k−1)·|payload| bytes per
// worker — and sums the k contributions in rank order. It is a test
// reference: no production path calls it; the collective tests hold the ring
// algorithm to it (both sum in rank order, so results are bit-identical).
func (c *Comm) AllReduceBroadcast(f Fence, data []float32, kind rpc.MsgKind) error {
	k, rank := c.tr.Size(), c.tr.Rank()
	if k == 1 || len(data) == 0 {
		return nil
	}
	own := append([]float32(nil), data...)
	msg := &rpc.Message{Kind: kind, Data: own, Dim: 1}
	msgs, err := c.Exchange(f, kind, func(int) *rpc.Message { return msg }, nil)
	if err != nil {
		return err
	}
	contrib := make([][]float32, k)
	contrib[rank] = own
	for _, m := range msgs {
		if int(m.From) < 0 || int(m.From) >= k || contrib[m.From] != nil {
			return fmt.Errorf("collective: unexpected all-reduce contribution from worker %d", m.From)
		}
		if len(m.Data) != len(data) {
			return fmt.Errorf("collective: all-reduce payload from worker %d has %d words, want %d",
				m.From, len(m.Data), len(data))
		}
		contrib[m.From] = m.Data
	}
	copy(data, contrib[0])
	for r := 1; r < k; r++ {
		tensor.AddUnrolled(data, contrib[r])
	}
	return nil
}
