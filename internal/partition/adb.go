package partition

import (
	"math"

	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/tensor"
)

// CostSample is one observed training-cost log entry for a root vertex:
// the per-type metric products n_t·m_t (§5: n_t = number of neighbors of
// type t, m_t = size of each type-t neighbor instance) and the measured
// cost.
type CostSample struct {
	Features []float64
	Cost     float64
}

// CostModel is the polynomial cost function f = c_0 + Σ_t c_t·(n_t·m_t)
// learned by regression from sampled running logs (§6's ADB component).
type CostModel struct {
	Coef []float64 // Coef[0] is the intercept
}

// Predict evaluates the model on one feature vector.
func (m CostModel) Predict(features []float64) float64 {
	y := m.Coef[0]
	for i, x := range features {
		y += m.Coef[i+1] * x
	}
	return y
}

// FitCostModel fits the polynomial by ordinary least squares over the
// samples (normal equations solved by Gaussian elimination with partial
// pivoting). numFeatures is the metric-set size (one per neighbor type).
func FitCostModel(samples []CostSample, numFeatures int) CostModel {
	d := numFeatures + 1
	// Accumulate XᵀX and Xᵀy.
	xtx := make([][]float64, d)
	for i := range xtx {
		xtx[i] = make([]float64, d)
	}
	xty := make([]float64, d)
	row := make([]float64, d)
	for _, s := range samples {
		row[0] = 1
		copy(row[1:], s.Features)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * s.Cost
		}
	}
	// Ridge term for numerical stability on degenerate sample sets.
	for i := 0; i < d; i++ {
		xtx[i][i] += 1e-6
	}
	coef := solveLinear(xtx, xty)
	return CostModel{Coef: coef}
}

// solveLinear solves Ax = b in place by Gaussian elimination with partial
// pivoting; A must be square.
func solveLinear(a [][]float64, b []float64) []float64 {
	n := len(b)
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		p := a[col][col]
		if p == 0 {
			continue
		}
		for r := col + 1; r < n; r++ {
			f := a[r][col] / p
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * x[c]
		}
		if a[r][r] != 0 {
			x[r] = sum / a[r][r]
		}
	}
	return x
}

// HDGCostFeatures computes, for every root of h, the metric vector
// (n_t·m_t) per neighbor type — the paper's MAGNN example: n_1·m_1 where
// n_1 is the metapath-instance count and m_1 the instance size times the
// feature dimension.
func HDGCostFeatures(h *hdg.HDG, featureDim int) [][]float64 {
	T := h.NumTypes()
	out := make([][]float64, h.NumRoots())
	for r := range out {
		feats := make([]float64, T)
		for t := 0; t < T; t++ {
			lo, hi := h.Instances(r, t)
			n := float64(hi - lo)
			var leaves int
			for i := lo; i < hi; i++ {
				leaves += len(h.Leaves(int(i)))
			}
			m := 0.0
			if hi > lo {
				m = float64(leaves) / n * float64(featureDim)
			}
			feats[t] = n * m
		}
		out[r] = feats
	}
	return out
}

// InducedGraph connects every root of h to its leaf vertices — the data
// dependencies that matter for synchronisation, since only roots and leaves
// are ever replicated across partitions (§5, Fig. 11b). It is a test
// reference: the partition tests build Fig. 11b's dependency graph with it,
// and no production path calls it.
func InducedGraph(h *hdg.HDG, numVertices int) *graph.Graph {
	b := graph.NewBuilder(numVertices)
	for r, root := range h.Roots {
		seen := map[graph.VertexID]bool{}
		for t := 0; t < h.NumTypes(); t++ {
			lo, hi := h.Instances(r, t)
			for i := lo; i < hi; i++ {
				for _, leaf := range h.Leaves(int(i)) {
					if leaf != root && !seen[leaf] {
						seen[leaf] = true
						b.AddUndirected(root, leaf)
					}
				}
			}
		}
	}
	return b.Build()
}

// ADB is the application-driven balancer: given per-root predicted costs
// and the induced dependency graph, it generates NumPlans balancing plans
// (BFS-grown retention sets in overloaded partitions, §5) and applies the
// plan that cuts the fewest induced edges.
type ADB struct {
	// Threshold is the balance factor above which rebalancing triggers
	// (§6: "once the balance factor exceeds a pre-defined threshold").
	Threshold float64
	// NumPlans is the number of candidate plans (§6 uses 5).
	NumPlans int
	// Seed drives BFS seed selection.
	Seed uint64
}

// DefaultADB returns the §6 configuration: 5 plans, trigger at 1.05.
func DefaultADB() *ADB { return &ADB{Threshold: 1.05, NumPlans: 5, Seed: 42} }

// Rebalance returns a new partitioning with migrated HDG roots, or the
// input unchanged when the balance factor is under the threshold. induced
// is the root-leaf dependency graph; cost is the per-vertex predicted
// training cost.
func (a *ADB) Rebalance(induced *graph.Graph, p *Partitioning, cost []float64) *Partitioning {
	validateCost(p, cost)
	loads := p.Loads(cost)
	if BalanceFactor(loads) <= a.Threshold {
		return p
	}
	var total float64
	for _, l := range loads {
		total += l
	}
	target := total / float64(p.K)

	rng := tensor.NewRNG(a.Seed)
	best := p
	bestCut := int64(math.MaxInt64)
	plans := a.NumPlans
	if plans <= 0 {
		plans = 5
	}
	parts := p.Parts()
	for plan := 0; plan < plans; plan++ {
		cand := a.buildPlan(induced, p, parts, cost, loads, target, rng)
		cut := EdgeCut(induced, cand)
		if cut < bestCut {
			best, bestCut = cand, cut
		}
	}
	return best
}

// buildPlan grows a BFS retention set within each overloaded partition up
// to the target budget; the excluded vertices become migration candidates
// and are assigned to underloaded partitions.
func (a *ADB) buildPlan(induced *graph.Graph, p *Partitioning, parts [][]graph.VertexID, cost, loads []float64, target float64, rng *tensor.RNG) *Partitioning {
	out := p.Clone()
	newLoads := append([]float64(nil), loads...)

	var migrants []graph.VertexID
	for part := 0; part < p.K; part++ {
		if loads[part] <= target*1.0001 || len(parts[part]) == 0 {
			continue
		}
		inPart := make(map[graph.VertexID]bool, len(parts[part]))
		for _, v := range parts[part] {
			inPart[v] = true
		}
		seed := parts[part][rng.Intn(len(parts[part]))]
		// BFS over the induced graph restricted to this partition, in
		// greedy budget order.
		kept := make(map[graph.VertexID]bool)
		budget := 0.0
		queue := []graph.VertexID{seed}
		kept[seed] = true
		budget += cost[seed]
		for len(queue) > 0 && budget < target {
			v := queue[0]
			queue = queue[1:]
			for _, u := range induced.OutNeighbors(v) {
				if !inPart[u] || kept[u] {
					continue
				}
				if budget+cost[u] > target {
					continue
				}
				kept[u] = true
				budget += cost[u]
				queue = append(queue, u)
			}
		}
		for _, v := range parts[part] {
			if !kept[v] {
				migrants = append(migrants, v)
				newLoads[part] -= cost[v]
			}
		}
	}
	// Assign migrants to the least-loaded partition one by one.
	for _, v := range migrants {
		dst := 0
		for part := 1; part < p.K; part++ {
			if newLoads[part] < newLoads[dst] {
				dst = part
			}
		}
		out.Assign[v] = int32(dst)
		newLoads[dst] += cost[v]
	}
	return out
}
