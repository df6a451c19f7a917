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
// peer is owed (duty.payload), fold the local sum and the received payloads
// (rankPlan.combine). The concurrent runtime (worker.go; goroutines per
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
	// contributions (0 for isolated rows) — the distributed mean's scale.
	degInv []float32
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
	p.degInv = make([]float32, adj.NumDst)
	for d, deg := range adj.Degrees() {
		if deg > 0 {
			p.degInv[d] = 1 / float32(deg)
		}
	}
	return p
}

// request is the plan message for peer q: the partial sums this rank wants
// from it, flattened as [dst, nLeaves, leaves...]*, with the receive
// preference in Dim (1 for partials, 0 for raw rows).
func (p *rankPlan) request(q int) *rpc.Message {
	m := &rpc.Message{Kind: rpc.KindPlan}
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

// duty is what a rank owes one peer at every aggregation over the adjacency
// the peer's plan request was for.
type duty struct {
	// partials is the peer's announced receive preference.
	partials bool
	// tasks are the partial sums the peer asked for, leaves remapped to the
	// sender's local ranks (partials only).
	tasks []Task
	// raw are the global IDs of the vertices whose feature rows ship
	// otherwise: the deduplicated, sorted set under pipeline processing, one
	// row per dependency reference — as a naive implementation collects them
	// — in the unoptimised §5 baseline.
	raw []graph.VertexID
}

// newDuty accepts peer req.From's plan request on behalf of rank self, whose
// vertex-to-row map is localRank.
func newDuty(req *rpc.Message, localRank []int32, self int, pipeline bool) (*duty, error) {
	tasks, err := decodeTasks(req.IDs)
	if err != nil {
		return nil, err
	}
	d := &duty{partials: req.Dim == 1}
	for _, t := range tasks {
		for i, v := range t.Leaves {
			if int(v) < 0 || int(v) >= len(localRank) || localRank[v] < 0 {
				return nil, fmt.Errorf("cluster: peer %d requested vertex %d not owned by worker %d", req.From, v, self)
			}
			if d.partials {
				t.Leaves[i] = localRank[v]
			} else {
				d.raw = append(d.raw, v)
			}
		}
	}
	if d.partials {
		d.tasks = tasks
	} else if pipeline {
		slices.Sort(d.raw)
		d.raw = slices.Compact(d.raw)
	}
	return d, nil
}

// payload builds the message the peer is owed from the sender's
// previous-layer rows (the collective layer stamps sender and fence).
func (d *duty) payload(feats *tensor.Tensor, localRank []int32) *rpc.Message {
	dim := feats.Cols()
	if d.partials {
		dsts, counts, data := PartialAggregate(d.tasks, feats)
		return &rpc.Message{Kind: rpc.KindPartials, IDs: dsts, Counts: counts, Data: data, Dim: int32(dim)}
	}
	data := make([]float32, len(d.raw)*dim)
	for i, v := range d.raw {
		copy(data[i*dim:(i+1)*dim], feats.Row(int(localRank[v])))
	}
	return &rpc.Message{Kind: rpc.KindFeatures, IDs: d.raw, Data: data, Dim: int32(dim)}
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

// combine folds the peers' payloads (in sender-rank order) into localSum and
// completes a mean. The remote contribution enters as a constant: no
// gradient flows to the embeddings a peer computed.
func (p *rankPlan) combine(localSum *nn.Value, msgs []*rpc.Message, op tensor.ReduceOp) (*nn.Value, error) {
	dim := localSum.Data.Cols()
	var remote *tensor.Tensor
	if p.usePartials {
		remote = tensor.New(p.local.NumDst, dim)
		rd := remote.Data()
		for _, m := range msgs {
			for i, dst := range m.IDs {
				tensor.AddUnrolled(rd[int(dst)*dim:int(dst+1)*dim], m.Data[i*dim:(i+1)*dim])
			}
		}
	} else {
		// Fill the compact remote buffer from the raw rows and reduce it
		// over the remote adjacency. A vertex outside the remote universe is
		// a protocol violation (the peer shipped rows this rank never asked
		// for) — skipping it would turn a wire bug into silently wrong sums.
		buffer := tensor.New(p.remote.NumSrc, dim)
		for _, m := range msgs {
			for i, v := range m.IDs {
				pos, ok := p.remoteIndex[v]
				if !ok {
					return nil, fmt.Errorf("cluster: peer %d shipped vertex %d outside worker %d's remote universe", m.From, v, p.self)
				}
				copy(buffer.Row(int(pos)), m.Data[i*dim:(i+1)*dim])
			}
		}
		remote = engine.FusedAggregate(p.remote, nn.Constant(buffer), tensor.ReduceSum).Data
	}
	out := nn.Add(localSum, nn.Constant(remote))
	if op == tensor.ReduceMean {
		scale := tensor.New(out.Data.Rows(), dim)
		for d, inv := range p.degInv {
			row := scale.Row(d)
			for j := range row {
				row[j] = inv
			}
		}
		out = nn.Mul(out, nn.Constant(scale))
	}
	return out, nil
}

// PartialAggregate computes, for each task, the sum of the sender's local
// feature rows — the "single assembled message that includes the sum" of
// §5. Returns per-task destination rows, contribution counts, and the
// row-major sums.
func PartialAggregate(tasks []Task, feats *tensor.Tensor) (dsts []int32, counts []int32, data []float32) {
	dim := feats.Cols()
	dsts = make([]int32, len(tasks))
	counts = make([]int32, len(tasks))
	data = make([]float32, len(tasks)*dim)
	fd := feats.Data()
	tensor.ParallelFor(len(tasks), func(s, e int) {
		for i := s; i < e; i++ {
			t := tasks[i]
			dsts[i] = t.Dst
			counts[i] = int32(len(t.Leaves))
			row := data[i*dim : (i+1)*dim]
			for _, v := range t.Leaves {
				tensor.AddUnrolled(row, fd[int(v)*dim:int(v+1)*dim])
			}
		}
	})
	return dsts, counts, data
}
