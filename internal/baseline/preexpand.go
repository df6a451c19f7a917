package baseline

import (
	"math"
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// PreExpand emulates the paper's §7.2 Pre+DGL baseline: a pre-computation
// phase materialises the HDGs as an expanded graph, and the per-epoch
// (timed) work runs GAS-like operations on that expanded graph.
//
//   - PinSage: the HDGs differ across epochs, so they "cannot trivially be
//     pre-computed but only approximated": many random walks run offline,
//     each vertex pair gets an importance weight, and each epoch does
//     weighted sampling on the expanded graph.
//   - MAGNN: HDGs never change; they are fully materialised offline and
//     each epoch conducts multiple GAS operations on the expanded graph
//     (one per aggregation step), with DGL-style scalar fused kernels.
//
// Per the paper, Epoch times only the computation on the expanded graph;
// the pre-computation cost is excluded (run lazily, cached per dataset).
type PreExpand struct {
	mu    sync.Mutex
	preps map[*dataset.Dataset]*preState
}

type preState struct {
	// PinSage: importance-weighted candidate lists per vertex.
	candidates [][]weightedVertex
	// MAGNN: fully materialised HDG.
	magnnHDG *hdg.HDG
}

type weightedVertex struct {
	v graph.VertexID
	w float32
}

// NewPreExpand returns a Pre+DGL executor with an empty precomputation
// cache.
func NewPreExpand() *PreExpand {
	return &PreExpand{preps: make(map[*dataset.Dataset]*preState)}
}

// Name returns "Pre+DGL".
func (p *PreExpand) Name() string { return "Pre+DGL" }

// Supports reports true for PinSage and MAGNN (the Table-3 models); GCN
// needs no HDGs so pre-expansion is meaningless.
func (p *PreExpand) Supports(kind ModelKind) bool { return kind != ModelGCN }

// Prepare runs the untimed pre-computation for the dataset and model kind.
// Epoch calls it lazily; benchmarks call it explicitly so the timed region
// matches the paper's (which excludes pre-computation).
func (p *PreExpand) Prepare(d *dataset.Dataset, spec Spec) error {
	p.mu.Lock()
	st := p.preps[d]
	if st == nil {
		st = &preState{}
		p.preps[d] = st
	}
	p.mu.Unlock()

	switch spec.Kind {
	case ModelPinSage:
		if st.candidates != nil {
			return nil
		}
		st.candidates = precomputeImportance(d.Graph, spec, 4)
	case ModelMAGNN:
		if st.magnnHDG != nil {
			return nil
		}
		// FlexGraph's own parallel NeighborSelection: the pre-computation is
		// untimed, so using the fast path is fair.
		recs := nau.SelectRecords(d.Graph, nil, nau.MetapathUDF(d.Metapaths, spec.MAGNN.MaxInstances),
			nau.AllVertices(d.Graph), 0, 0)
		h, err := buildMAGNNHDG(d, recs)
		if err != nil {
			return err
		}
		st.magnnHDG = h
	default:
		return ErrUnsupported
	}
	return nil
}

// precomputeImportance runs `mult` times the online walk budget offline and
// keeps, per vertex, the visited vertices with importance weights
// proportional to visit counts.
func precomputeImportance(g *graph.Graph, spec Spec, mult int) [][]weightedVertex {
	cfg := spec.PinSage
	n := g.NumVertices()
	out := make([][]weightedVertex, n)
	rng := tensor.NewRNG(spec.Seed ^ 0x9e37)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	tensor.ParallelFor(n, func(s, e int) {
		for v := s; v < e; v++ {
			wrng := tensor.NewRNG(seeds[v])
			counts := make(map[graph.VertexID]int)
			for w := 0; w < cfg.NumWalks*mult; w++ {
				for _, u := range g.RandomWalk(wrng, graph.VertexID(v), cfg.Hops)[1:] {
					if u != graph.VertexID(v) {
						counts[u]++
					}
				}
			}
			// The expanded graph keeps EVERY visited vertex with its
			// importance weight — §7.2's "perhaps larger" expanded graph
			// that each epoch's weighted sampling must traverse.
			cand := make([]weightedVertex, 0, len(counts))
			for u, c := range counts {
				cand = append(cand, weightedVertex{u, float32(c)})
			}
			sort.Slice(cand, func(i, j int) bool {
				if cand[i].w != cand[j].w {
					return cand[i].w > cand[j].w
				}
				return cand[i].v < cand[j].v
			})
			out[v] = cand
		}
	})
	return out
}

// Epoch runs the timed per-epoch computation on the expanded graph.
func (p *PreExpand) Epoch(d *dataset.Dataset, spec Spec) (float32, error) {
	if !p.Supports(spec.Kind) {
		return 0, ErrUnsupported
	}
	if err := p.Prepare(d, spec); err != nil {
		return 0, err
	}
	p.mu.Lock()
	st := p.preps[d]
	p.mu.Unlock()
	switch spec.Kind {
	case ModelPinSage:
		return p.pinsage(d, spec, st)
	case ModelMAGNN:
		return p.magnn(d, spec, st)
	}
	return 0, ErrUnsupported
}

func (p *PreExpand) pinsage(d *dataset.Dataset, spec Spec, st *preState) (float32, error) {
	in, classes := specDims(d)
	rng := tensor.NewRNG(spec.Seed)
	net := newTwoLayerNet(in, spec.Hidden, classes, true, rng)
	cfg := spec.PinSage

	// Weighted sampling of top-k neighbors from the expanded graph: much
	// cheaper than walking the original graph, but still a per-epoch cost
	// FlexGraph does not pay at this complexity.
	var recs []hdg.Record
	for v := 0; v < d.Graph.NumVertices(); v++ {
		cand := st.candidates[v]
		k := cfg.TopK
		if k > len(cand) {
			k = len(cand)
		}
		// Weighted sampling without replacement via exponential trick.
		type scored struct {
			v graph.VertexID
			s float32
		}
		sc := make([]scored, len(cand))
		for i, c := range cand {
			u := rng.Float32()
			if u <= 0 {
				u = 1e-9
			}
			sc[i] = scored{c.v, c.w / (-ln32(u))}
		}
		sort.Slice(sc, func(i, j int) bool { return sc[i].s > sc[j].s })
		for i := 0; i < k; i++ {
			recs = append(recs, hdg.Record{Root: graph.VertexID(v), Nei: []graph.VertexID{sc[i].v}, Type: 0})
		}
	}
	h, err := flatRecordsToHDG(d.Graph, recs)
	if err != nil {
		return 0, err
	}
	adj := engine.FromHDGFlat(h, d.Graph.NumVertices())

	h0 := nn.Constant(d.Features)
	a1 := engine.FusedAggregateScalar(adj, h0, tensor.ReduceSum)
	h1 := nn.ReLU(net.l1.Forward(nn.Concat(h0, a1)))
	a2 := engine.FusedAggregateScalar(adj, h1, tensor.ReduceSum)
	logits := net.l2.Forward(nn.Concat(h1, a2))
	return net.step(logits, d.Labels, d.TrainMask), nil
}

func (p *PreExpand) magnn(d *dataset.Dataset, spec Spec, st *preState) (float32, error) {
	in, classes := specDims(d)
	rng := tensor.NewRNG(spec.Seed)
	net := newTwoLayerNet(in, spec.Hidden, classes, false, rng)
	h := st.magnnHDG

	bottom := engine.FromHDGBottom(h, d.Graph.NumVertices())
	slots := h.InstanceSlots()
	nSlots := h.NumRoots() * h.NumTypes()
	rootIdx := make([]int32, nSlots)
	for i := range rootIdx {
		rootIdx[i] = int32(i / h.NumTypes())
	}

	// Multiple GAS operations per layer on the expanded graph (§7.2), with
	// DGL's scalar fused kernel at the bottom and sparse scatters above —
	// the same model math as the NAU MAGNN (attention included), but no
	// dense schema-level operation and no SIMD.
	attn1 := nn.Param(tensor.RandN(rng, 0.1, in, 1))
	attn2 := nn.Param(tensor.RandN(rng, 0.1, spec.Hidden, 1))
	opt := nn.NewAdam(append(nn.CollectParams(net.l1, net.l2), attn1, attn2), 0.01)
	forward := func(feats *nn.Value, lin *nn.Linear, attn *nn.Value, act bool) *nn.Value {
		inst := engine.FusedAggregateScalar(bottom, feats, tensor.ReduceMean)
		scores := nn.Tanh(nn.MatMul(inst, attn))
		att := nn.ScatterSoftmax(scores, slots, nSlots)
		slot := nn.ScatterAdd(nn.MulBroadcast(att, inst), slots, nSlots)
		nbr := nn.ScatterMean(slot, rootIdx, h.NumRoots())
		out := lin.Forward(nbr)
		if act {
			out = nn.ReLU(out)
		}
		return out
	}
	h0 := nn.Constant(d.Features)
	h1 := forward(h0, net.l1, attn1, true)
	logits := forward(h1, net.l2, attn2, false)
	loss := nn.CrossEntropy(logits, d.Labels, d.TrainMask)
	opt.ZeroGrad()
	loss.Backward()
	opt.Step()
	return loss.Data.At(0, 0), nil
}

func ln32(x float32) float32 {
	return float32(math.Log(float64(x)))
}
