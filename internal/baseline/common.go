package baseline

import (
	"sort"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// twoLayerNet holds the parameters of a 2-layer GNN. concat1/concat2 double
// the corresponding layer's input width (PinSage-style updates).
type twoLayerNet struct {
	l1, l2 *nn.Linear
	opt    nn.Optimizer
}

func newTwoLayerNet(in, hidden, classes int, concat bool, rng *tensor.RNG) *twoLayerNet {
	mul := 1
	if concat {
		mul = 2
	}
	n := &twoLayerNet{
		l1: nn.NewLinear(mul*in, hidden, true, rng),
		l2: nn.NewLinear(mul*hidden, classes, true, rng),
	}
	n.opt = nn.NewAdam(nn.CollectParams(n.l1, n.l2), 0.01)
	return n
}

// step computes masked cross-entropy on logits, backpropagates, and applies
// one optimizer update, returning the loss.
func (n *twoLayerNet) step(logits *nn.Value, labels []int32, mask []bool) float32 {
	loss := nn.CrossEntropy(logits, labels, mask)
	n.opt.ZeroGrad()
	loss.Backward()
	n.opt.Step()
	return loss.Data.At(0, 0)
}

// adjacencyCSR encodes the in-edge adjacency as a CSR matrix with unit
// weights, the input of the SpMM-based GCN baseline.
func adjacencyCSR(g *graph.Graph) *tensor.CSR {
	n := g.NumVertices()
	coo := tensor.NewCOO(n, n)
	for v := 0; v < n; v++ {
		for _, u := range g.InNeighbors(graph.VertexID(v)) {
			coo.Append(int32(v), u, 1)
		}
	}
	return coo.ToCSR()
}

// expansionEdgeEstimate upper-bounds the induced-subgraph edge count of a
// vertex set by summing out-degrees, so mini-batch executors can check
// their budget before paying for subgraph construction.
func expansionEdgeEstimate(g *graph.Graph, vertices []graph.VertexID) int64 {
	var est int64
	for _, v := range vertices {
		est += int64(g.OutDegree(v))
	}
	return est
}

// sequentialMetapathRecords is the single-threaded metapath instance search
// used by the PyTorch MAGNN baseline (the paper: "over 95% of the total
// time is used to find metapath instances").
func sequentialMetapathRecords(g *graph.Graph, paths []graph.Metapath, maxInst int) []hdg.Record {
	var recs []hdg.Record
	for v := 0; v < g.NumVertices(); v++ {
		for t, mp := range paths {
			for _, inst := range g.MetapathInstances(graph.VertexID(v), mp, maxInst) {
				recs = append(recs, hdg.Record{Root: graph.VertexID(v), Nei: inst, Type: t})
			}
		}
	}
	return recs
}

// flatRecordsToHDG builds a flat HDG over all vertices from records.
func flatRecordsToHDG(g *graph.Graph, recs []hdg.Record) (*hdg.HDG, error) {
	return hdg.Build(hdg.NewSchemaTree("vertex"), nau.AllVertices(g), recs)
}

// buildMAGNNHDG builds the hierarchical HDG over all vertices from metapath
// records, using the dataset's metapath names as the schema.
func buildMAGNNHDG(d *dataset.Dataset, recs []hdg.Record) (*hdg.HDG, error) {
	names := make([]string, len(d.Metapaths))
	for i, mp := range d.Metapaths {
		names[i] = mp.Name
	}
	return hdg.Build(hdg.NewSchemaTree(names...), nau.AllVertices(d.Graph), recs)
}

// expandKHop returns the set of vertices within k out-hops of the seeds
// (including the seeds), sorted — the full-neighbor expansion step of the
// mini-batch strategy (§7.1: "first gather full neighbors within 2-hops for
// each vertex").
func expandKHop(g *graph.Graph, seeds []graph.VertexID, k int) []graph.VertexID {
	visited := make(map[graph.VertexID]bool, len(seeds)*4)
	frontier := make([]graph.VertexID, 0, len(seeds))
	for _, s := range seeds {
		if !visited[s] {
			visited[s] = true
			frontier = append(frontier, s)
		}
	}
	for hop := 0; hop < k; hop++ {
		var next []graph.VertexID
		for _, v := range frontier {
			for _, u := range g.OutNeighbors(v) {
				if !visited[u] {
					visited[u] = true
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	out := make([]graph.VertexID, 0, len(visited))
	for v := range visited {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// induceSubgraph is the "convert these vertices and their relationships
// into a new subgraph" step the paper blames for the mini-batch overhead.
func induceSubgraph(g *graph.Graph, vertices []graph.VertexID) (*graph.Graph, map[graph.VertexID]int32) {
	return g.Induce(vertices)
}

// gatherRows copies the selected global rows of feats into a new local
// tensor.
func gatherRows(feats *tensor.Tensor, vertices []graph.VertexID) *tensor.Tensor {
	idx := make([]int32, len(vertices))
	for i, v := range vertices {
		idx[i] = v
	}
	return tensor.Gather(feats, idx)
}

// specDims extracts (in, classes) from the dataset.
func specDims(d *dataset.Dataset) (in, classes int) {
	return d.FeatureDim(), d.NumClasses
}
