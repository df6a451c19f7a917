package engine

import (
	"time"

	"repro/internal/tensor"
)

// Degree-bucketed grain scheduling. Power-law graphs give the fused
// aggregation kernels a bimodal workload: most destinations have a handful
// of in-edges (leaves) while a few hubs own a large share of all edges. One
// scheduling policy cannot serve both — leaves want large vertex-parallel
// batches with zero per-vertex overhead, hubs want their *edge list* split
// across workers. The scheduler classifies destinations by CSR degree
// (DstPtr[d+1]-DstPtr[d]) into three buckets and gives each its own
// execution path:
//
//   - leaf  (deg <= leafMaxDeg): vertex-parallel batches sized by the
//     bucket's average degree — no weighted-split binary searches, no merge;
//   - mid   (leafMaxDeg < deg < hubMinDeg): edge-balanced weighted split;
//   - hub   (deg >= hubMinDeg): executed one at a time with intra-vertex
//     parallelism — either edge-parallel segments folding into private
//     partial accumulators merged in edge order (selection ops, where the
//     merge is bit-exact), or a column split of the feature dimension
//     (additive ops and backward passes, where per-column edge order must
//     be preserved for IEEE bit-exactness).
//
// The classification is built once per Adjacency. With one worker every
// path runs rowPass(d, 0, dim) inline, which is the serial reference the
// bit-exactness tests compare the parallel schedules against.

const (
	hubMinDeg  = 1024
	leafMaxDeg = 32
)

// bucketPlan is the cached destination classification of one Adjacency.
type bucketPlan struct {
	leaf      []int32 // ascending destination ids, deg <= leafMaxDeg
	leafEdges int64   // total edges into leaf destinations
	mid       []int32 // ascending destination ids, leafMaxDeg < deg < hubMinDeg
	midPrefix []int64 // degree prefix over mid, for the weighted split
	hubs      []int32 // ascending destination ids, deg >= hubMinDeg
}

// buckets returns the adjacency's bucket plan, building it on first use (in
// the storage of the plan FlatInto left, if any).
func (a *Adjacency) buckets() *bucketPlan {
	a.planOnce.Do(func() {
		p := a.plan
		if p == nil {
			p = &bucketPlan{}
		}
		*p = bucketPlan{leaf: p.leaf[:0], mid: p.mid[:0], midPrefix: p.midPrefix[:0], hubs: p.hubs[:0]}
		for d := 0; d < a.NumDst; d++ {
			deg := a.DstPtr[d+1] - a.DstPtr[d]
			switch {
			case deg >= hubMinDeg:
				p.hubs = append(p.hubs, int32(d))
			case deg <= leafMaxDeg:
				p.leaf = append(p.leaf, int32(d))
				p.leafEdges += deg
			default:
				p.mid = append(p.mid, int32(d))
			}
		}
		p.midPrefix = append(p.midPrefix, 0)
		for k, d := range p.mid {
			p.midPrefix = append(p.midPrefix, p.midPrefix[k]+(a.DstPtr[d+1]-a.DstPtr[d]))
		}
		a.plan = p
	})
	return a.plan
}

// instrumented wraps a range body with the per-grain duration histogram when
// one is installed (see SetGrainHistogram).
func instrumented(body func(s, e int)) func(s, e int) {
	h := grainHist.Load()
	if h == nil {
		return body
	}
	return func(s, e int) {
		t0 := time.Now()
		body(s, e)
		h.ObserveSince(t0)
	}
}

// runDst runs rowPass over every destination of adj under the bucketed
// scheduler. rowPass(d, j0, j1) folds feature columns [j0, j1) of
// destination d over d's whole edge list, in edge order. Leaf batches and
// edge-balanced mid chunks call it with the full row; hubs run one at a
// time on the calling goroutine, parallel inside the vertex: hubBody(d) if
// given (fusedExtreme's edge-parallel segment fold), otherwise rowPass over
// a split of the feature columns — per-column work is untouched, so that
// split is bit-exact for every operator, including IEEE addition.
//
// Every path visits each destination exactly once and touches only
// destination d's output row, so all schedules produce the same writes; the
// per-column fold order is rowPass's own, so results are bitwise identical
// across schedules.
func runDst(adj *Adjacency, dim int, rowPass func(d, j0, j1 int), hubBody func(d int)) {
	plan := adj.buckets()
	// Leaf phase: plain batches; grain sized so a chunk carries enough work
	// even when leaf degrees are tiny.
	if len(plan.leaf) > 0 {
		avgCost := (int(plan.leafEdges)/len(plan.leaf) + 1) * dim
		tensor.ParallelForGrain(len(plan.leaf), tensor.GrainForCost(avgCost), instrumented(func(s, e int) {
			for _, d := range plan.leaf[s:e] {
				rowPass(int(d), 0, dim)
			}
		}))
	}
	// Mid phase: edge-balanced weighted split.
	if len(plan.mid) > 0 {
		tensor.ParallelForWeighted(len(plan.mid), plan.midPrefix, dim, instrumented(func(s, e int) {
			for _, d := range plan.mid[s:e] {
				rowPass(int(d), 0, dim)
			}
		}))
	}
	for _, h := range plan.hubs {
		d := int(h)
		if hubBody != nil {
			hubBody(d)
			continue
		}
		// Split whole 8-column vectors, so that only the last range ends in
		// the kernels' masked tail.
		grain := tensor.GrainForCost(8 * int(adj.DstPtr[d+1]-adj.DstPtr[d]))
		tensor.ParallelForGrain((dim+7)/8, grain, func(b0, b1 int) { rowPass(d, 8*b0, min(8*b1, dim)) })
	}
}

// edgeSegments splits the edge range [lo, hi) of one hub destination into
// at most Parallelism() contiguous segments of at least minSeg edges, for
// the edge-parallel private-accumulator fold. The returned bounds have
// segment k covering [bounds[k], bounds[k+1]); len(bounds)-1 >= 1.
func edgeSegments(lo, hi, minSeg int64) []int64 {
	if minSeg < 1 {
		minSeg = 1
	}
	n := hi - lo
	nseg := int64(tensor.Parallelism())
	if mx := n / minSeg; nseg > mx {
		nseg = mx
	}
	if nseg < 1 {
		nseg = 1
	}
	bounds := make([]int64, nseg+1)
	for k := int64(0); k <= nseg; k++ {
		bounds[k] = lo + n*k/nseg
	}
	return bounds
}
