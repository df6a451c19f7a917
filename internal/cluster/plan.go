// Package cluster implements FlexGraph-Go's shared-nothing distributed
// runtime (§5): vertices are divided into disjoint partitions, each worker
// builds the HDGs of its own roots, and feature messages are exchanged at
// layer boundaries. The two §5 optimisations are implemented faithfully:
//
//   - partial aggregation: a worker combines all of its local contributions
//     to a remote destination into a single assembled message carrying the
//     partial sum, instead of shipping raw per-vertex features;
//   - pipeline processing: local partial aggregation overlaps with
//     communication, and the received partials are merged at the end.
//
// A rank's share of one bottom-level aggregation is written once, in this
// file, as pieces that touch no transport: split the adjacency by owner
// (newRankPlan), accept what a peer asks for (newDuty), build the payload a
// peer is owed (duty.payload, into a buffer the duty keeps), fold the
// received payloads into the local sum's own buffer (rankPlan.combine). The concurrent runtime (worker.go; goroutines per
// worker over loopback or TCP) runs them around collective.Exchange. The
// simulation mode behind the Figure-13/15 benchmarks (sim.go) runs the same
// pieces serially with full machine parallelism — as if each worker were one
// of the paper's 96-core machines — and prices the messages they build with
// a configurable bandwidth/latency (the paper's 3.25 GB/s NIC).
package cluster

import (
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rpc"
	"repro/internal/tensor"
)

// Task is one unit of remote partial aggregation: the sender owns Leaves
// and must combine their feature rows for the requester's destination row
// Dst (an index into the requester's bottom-level output).
type Task struct {
	Dst    int32
	Leaves []int32
}

// rankPlan is one rank's receive side of the communication plan for one
// bottom-level adjacency (destination rows local to the rank, source IDs
// global).
type rankPlan struct {
	self int
	// local is the adjacency restricted to leaves this rank owns, with
	// sources remapped to local root ranks (compact universe).
	local *engine.Adjacency
	// remote is the complement, with sources remapped into the compact
	// remoteUniverse (raw path).
	remote *engine.Adjacency
	// remoteUniverse lists the distinct remote vertices this rank's
	// destinations depend on; remoteIndex inverts it.
	remoteUniverse []graph.VertexID
	remoteIndex    map[graph.VertexID]int32
	// wants[q] are the partial sums this rank asks peer q for, leaves as
	// global IDs (the owner remaps them into its own local ranks).
	wants [][]Task
	// usePartials records whether this rank wants to receive
	// per-destination partial sums: with pipeline processing on, when they
	// ship no more rows than its deduplicated raw dependencies (§5's partial
	// aggregation "when possible"); otherwise peers ship raw rows. The
	// preference is announced to peers in the plan request.
	usePartials bool
	// degInv is 1/in-degree per destination over local + remote
	// contributions (0 for isolated rows) — the distributed mean's scale, a
	// [rows, 1] column for the broadcast multiply.
	degInv *nn.Value
}

// newRankPlan splits adj by owner — the one place that is done. localRank
// maps a global vertex to its row among self's roots (-1 if not owned).
func newRankPlan(adj *engine.Adjacency, owner, localRank []int32, self, k int, pipeline bool) *rankPlan {
	p := &rankPlan{self: self, remoteIndex: make(map[graph.VertexID]int32), wants: make([][]Task, k)}
	localPtr := make([]int64, adj.NumDst+1)
	remotePtr := make([]int64, adj.NumDst+1)
	var localIdx, remoteIdx []int32
	buf := make([][]int32, k)
	tasks := 0
	for d := 0; d < adj.NumDst; d++ {
		for q := range buf {
			buf[q] = buf[q][:0]
		}
		for e := adj.DstPtr[d]; e < adj.DstPtr[d+1]; e++ {
			src := adj.Src(e)
			if int(owner[src]) == self {
				localIdx = append(localIdx, localRank[src])
				continue
			}
			pos, ok := p.remoteIndex[src]
			if !ok {
				pos = int32(len(p.remoteUniverse))
				p.remoteIndex[src] = pos
				p.remoteUniverse = append(p.remoteUniverse, src)
			}
			remoteIdx = append(remoteIdx, pos)
			buf[owner[src]] = append(buf[owner[src]], src)
		}
		localPtr[d+1] = int64(len(localIdx))
		remotePtr[d+1] = int64(len(remoteIdx))
		for q := range buf {
			if len(buf[q]) > 0 {
				p.wants[q] = append(p.wants[q], Task{Dst: int32(d), Leaves: slices.Clone(buf[q])})
				tasks++
			}
		}
	}
	nLocal := 0
	for _, r := range localRank {
		if r >= 0 {
			nLocal++
		}
	}
	p.local = &engine.Adjacency{NumDst: adj.NumDst, NumSrc: nLocal, DstPtr: localPtr, SrcIdx: localIdx}
	// The remote level always has at least one (possibly unread) source row,
	// so a rank with no remote dependency still reduces a well-formed level.
	p.remote = &engine.Adjacency{NumDst: adj.NumDst, NumSrc: max(len(p.remoteUniverse), 1), DstPtr: remotePtr, SrcIdx: remoteIdx}
	p.usePartials = pipeline && tasks <= len(p.remoteUniverse)
	degInv := tensor.New(adj.NumDst, 1)
	for d, deg := range adj.Degrees() {
		if deg > 0 {
			degInv.Data()[d] = 1 / float32(deg)
		}
	}
	p.degInv = nn.Constant(degInv)
	return p
}

// request is the plan message for peer q: the partial sums this rank wants
// from it, flattened as [dst, nLeaves, leaves...]*, with the receive
// preference in Dim (1 for partials, 0 for raw rows).
func (p *rankPlan) request(q int) *rpc.Message {
	m := &rpc.Message{Kind: rpc.KindPlan, From: int32(p.self)}
	for _, t := range p.wants[q] {
		m.IDs = append(m.IDs, t.Dst, int32(len(t.Leaves)))
		m.IDs = append(m.IDs, t.Leaves...)
	}
	if p.usePartials {
		m.Dim = 1
	}
	return m
}

// recvKind is the payload kind this rank announced it wants.
func (p *rankPlan) recvKind() rpc.MsgKind {
	if p.usePartials {
		return rpc.KindPartials
	}
	return rpc.KindFeatures
}

func decodeTasks(ids []int32) ([]Task, error) {
	var out []Task
	for i := 0; i < len(ids); {
		if i+2 > len(ids) {
			return nil, fmt.Errorf("cluster: truncated task encoding")
		}
		dst, n := ids[i], int(ids[i+1])
		i += 2
		// A corrupt frame can carry a negative leaf count, which would pass
		// the overflow check below (i+n < i) and slice out of range.
		if n < 0 {
			return nil, fmt.Errorf("cluster: corrupt task encoding: negative leaf count %d", n)
		}
		if i+n > len(ids) {
			return nil, fmt.Errorf("cluster: truncated task leaves")
		}
		out = append(out, Task{Dst: dst, Leaves: slices.Clone(ids[i : i+n])})
		i += n
	}
	return out, nil
}

// exchanged is what a plan exchange over one bottom-level adjacency leaves
// behind: the rank's own plan and the duties it accepted. A worker holds the
// duties it owes each peer; the simulator, which plays every rank, holds the
// duties each peer owes this plan's rank.
type exchanged struct {
	plan   *rankPlan
	duties []*duty
}

// exchangePlan is the rank-local half of the plan exchange over adj: the
// rank's plan, and duties[q] for each request reqs[q] trade hands back for it,
// accepted by the rank acceptor(q) names. A worker trades over the wire and
// accepts its peers' requests; the simulator has each peer accept the rank's.
// The result is cached per adjacency while the context's HDG stays the one it
// was exchanged under: a new HDG, selected or adopted, may come with a
// recycled adjacency holding another level, so it makes every plan stale.
func (r *rankState) exchangePlan(adj *engine.Adjacency, pipeline bool,
	trade func(p *rankPlan) ([]*rpc.Message, error), acceptor func(q int) (rows []int32, self int)) (*exchanged, error) {
	if h := r.prog.Ctx.HDG; h != r.plansHDG {
		clear(r.plans)
		r.plansHDG = h
	}
	if x, ok := r.plans[adj]; ok {
		return x, nil
	}
	x := &exchanged{plan: newRankPlan(adj, r.owner, r.localRank, r.rank, r.k, pipeline), duties: make([]*duty, r.k)}
	reqs, err := trade(x.plan)
	if err != nil {
		return nil, err
	}
	for q, req := range reqs {
		if req != nil {
			rows, self := acceptor(q)
			if x.duties[q], err = newDuty(req, rows, self, pipeline); err != nil {
				return nil, err
			}
		}
	}
	r.plans[adj] = x
	return x, nil
}

// duty is what a rank owes one peer at every aggregation over the adjacency
// the peer's plan request was for.
type duty struct {
	// tasks are the partial sums the peer asked for, leaves remapped to the
	// sender's local ranks (when the peer announced it wants partials).
	tasks []Task
	// rows are the sender's local rows that ship otherwise, one per vertex of
	// msg.IDs: the deduplicated, sorted set under pipeline processing, one
	// row per dependency reference — as a naive implementation collects them
	// — in the unoptimised §5 baseline.
	rows []int32
	// msg is the payload, rebuilt in place at every aggregation. What the
	// request fixes is filled once — the kind, and IDs/Counts: the tasks'
	// destination rows and contribution counts, or the raw rows' global
	// vertex IDs — and Data is rewritten from the layer's rows. The previous
	// aggregation's exchange has returned by then, so no send still reads it.
	msg rpc.Message
}

// newDuty accepts peer req.From's plan request on behalf of rank self, whose
// vertex-to-row map is localRank.
func newDuty(req *rpc.Message, localRank []int32, self int, pipeline bool) (*duty, error) {
	tasks, err := decodeTasks(req.IDs)
	if err != nil {
		return nil, err
	}
	partials := req.Dim == 1
	var raw []graph.VertexID
	for _, t := range tasks {
		for i, v := range t.Leaves {
			if int(v) < 0 || int(v) >= len(localRank) || localRank[v] < 0 {
				return nil, fmt.Errorf("cluster: peer %d requested vertex %d not owned by worker %d", req.From, v, self)
			}
			if partials {
				t.Leaves[i] = localRank[v]
			} else {
				raw = append(raw, v)
			}
		}
	}
	if partials {
		d := &duty{tasks: tasks, msg: rpc.Message{Kind: rpc.KindPartials}}
		d.msg.IDs = make([]int32, len(tasks))
		d.msg.Counts = make([]int32, len(tasks))
		for i, t := range tasks {
			d.msg.IDs[i] = t.Dst
			d.msg.Counts[i] = int32(len(t.Leaves))
		}
		return d, nil
	}
	if pipeline {
		slices.Sort(raw)
		raw = slices.Compact(raw)
	}
	d := &duty{rows: make([]int32, len(raw)), msg: rpc.Message{Kind: rpc.KindFeatures, IDs: raw}}
	for i, v := range raw {
		d.rows[i] = localRank[v]
	}
	return d, nil
}

// payload builds the message the peer is owed from the sender's
// previous-layer rows (the collective layer stamps sender and fence). The
// message and its sections are the duty's: they hold until its next payload.
func (d *duty) payload(feats *tensor.Tensor) *rpc.Message {
	dim := feats.Cols()
	m := &d.msg
	m.Dim = int32(dim)
	m.Data = slices.Grow(m.Data[:0], len(m.IDs)*dim)[:len(m.IDs)*dim]
	if m.Kind == rpc.KindPartials {
		PartialAggregate(d.tasks, feats, m.Data)
		return m
	}
	for i, r := range d.rows {
		copy(m.Data[i*dim:(i+1)*dim], feats.Row(int(r)))
	}
	return m
}

// checkSplittable rejects the reduce ops that cannot be split into per-owner
// partial results and summed: everything but sum and mean.
func checkSplittable(op tensor.ReduceOp) error {
	if op != tensor.ReduceSum && op != tensor.ReduceMean {
		return fmt.Errorf("cluster: distributed aggregation supports sum and mean, got %v", op)
	}
	return nil
}

// localSum reduces the rank's own contributions — the part that overlaps
// communication under pipeline processing.
func (p *rankPlan) localSum(feats *nn.Value) *nn.Value {
	return engine.FusedAggregate(p.local, feats, tensor.ReduceSum)
}

// combine folds the peers' payloads into localSum's own buffer and completes
// a mean; for a sum the value returned is localSum itself. The remote
// contribution enters as a constant: no gradient flows to the embeddings a
// peer computed, so localSum's backward is the whole level's.
//
// The accumulation order is a contract: local + ((0 + m₁) + m₂ + …), peers
// in sender-rank order. With one peer that is local + m₁, added straight onto
// the rows the peer has a partial for (a payload is summed up from +0, so it
// holds no -0 and 0 + m₁ is m₁ to the bit). With more, the payloads are first
// summed in rank order in a pooled scratch. Rows no peer contributes to are
// left as they are; adding a zero-filled remainder to them (the test oracle's
// nn.Add) differs only in turning a -0 sum into +0 — the sign of an exact
// zero, which no operation downstream turns into a different non-zero value.
func (p *rankPlan) combine(localSum *nn.Value, msgs []*rpc.Message, op tensor.ReduceOp) (*nn.Value, error) {
	sum := localSum.Data
	dim := sum.Cols()
	for _, m := range msgs {
		if len(m.Data) != len(m.IDs)*dim {
			return nil, fmt.Errorf("cluster: peer %d shipped %d values for %d rows of width %d", m.From, len(m.Data), len(m.IDs), dim)
		}
	}
	switch {
	case !p.usePartials:
		// Fill the compact remote buffer from the raw rows and reduce it
		// over the remote adjacency. A vertex outside the remote universe is
		// a protocol violation (the peer shipped rows this rank never asked
		// for) — skipping it would turn a wire bug into silently wrong sums.
		buffer := tensor.NewPooled(p.remote.NumSrc, dim)
		for _, m := range msgs {
			for i, v := range m.IDs {
				pos, ok := p.remoteIndex[v]
				if !ok {
					return nil, fmt.Errorf("cluster: peer %d shipped vertex %d outside worker %d's remote universe", m.From, v, p.self)
				}
				copy(buffer.Row(int(pos)), m.Data[i*dim:(i+1)*dim])
			}
		}
		remote := engine.FusedAggregate(p.remote, nn.Constant(buffer), tensor.ReduceSum).Data
		sum.AddInPlace(remote)
		tensor.Recycle(remote)
		tensor.Recycle(buffer)
	case len(msgs) == 1:
		if err := p.addPartials(sum, msgs[0]); err != nil {
			return nil, err
		}
	case len(msgs) > 1:
		scratch := tensor.NewPooled(sum.Rows(), dim)
		for _, m := range msgs {
			if err := p.addPartials(scratch, m); err != nil {
				return nil, err
			}
		}
		sum.AddInPlace(scratch)
		tensor.Recycle(scratch)
	}
	if op == tensor.ReduceMean {
		return nn.MulBroadcast(p.degInv, localSum), nil
	}
	return localSum, nil
}

// addPartials adds each of m's partial sums onto its destination row of acc.
func (p *rankPlan) addPartials(acc *tensor.Tensor, m *rpc.Message) error {
	dim, rows := acc.Cols(), acc.Rows()
	ad := acc.Data()
	for i, dst := range m.IDs {
		if dst < 0 || int(dst) >= rows {
			return fmt.Errorf("cluster: peer %d shipped a partial for row %d, worker %d has %d", m.From, dst, p.self, rows)
		}
		tensor.AddUnrolled(ad[int(dst)*dim:int(dst+1)*dim], m.Data[i*dim:(i+1)*dim])
	}
	return nil
}

// PartialAggregate computes, for each task, the sum of the sender's local
// feature rows — the "single assembled message that includes the sum" of
// §5 — into data, one row of feats' width per task. Every sum starts from
// +0, whatever data held.
func PartialAggregate(tasks []Task, feats *tensor.Tensor, data []float32) {
	dim := feats.Cols()
	fd := feats.Data()
	tensor.ParallelFor(len(tasks), func(s, e int) {
		for i := s; i < e; i++ {
			tensor.SumRows(data[i*dim:(i+1)*dim], fd, dim, tasks[i].Leaves, true)
		}
	})
}
