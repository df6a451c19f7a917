package store

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/nau"
	"repro/internal/tensor"
)

// LocalConfig configures an in-memory store over the CSR graph.
type LocalConfig struct {
	// Graph is the stored topology (required).
	Graph *graph.Graph
	// Features is the [vertices, dim] feature matrix (required for Gather).
	Features *tensor.Tensor
	// Labels holds one class per vertex (nil gathers zeros).
	Labels []int32
	// TrainMask marks the vertices contributing to the loss (nil gathers
	// false).
	TrainMask []bool
	// Schema and UDF configure Sample — the neighbor-selection query. A nil
	// Schema makes Sample an error (DNFA models use InEdges instead).
	Schema *hdg.SchemaTree
	// UDF is the neighbor-selection function run per root.
	UDF nau.NeighborUDF
}

// Local implements GraphStore and FeatureStore in memory. It is the store
// the cluster's mini-batch workers, the mini-batch baselines and the serve
// planner read.
type Local struct {
	cfg LocalConfig
}

// NewLocal builds an in-memory store.
func NewLocal(cfg LocalConfig) *Local { return &Local{cfg: cfg} }

// NumVertices returns the graph's vertex count.
func (l *Local) NumVertices() int { return l.cfg.Graph.NumVertices() }

// FeatureDim returns the feature row width.
func (l *Local) FeatureDim() int { return l.cfg.Features.Cols() }

// Close is a no-op: the local store owns no resources.
func (l *Local) Close() error { return nil }

// InEdges visits each destination's CSR in-neighbor list in place.
func (l *Local) InEdges(ctx context.Context, dsts []graph.VertexID, visit func(nbrs []graph.VertexID)) error {
	if err := ctx.Err(); err != nil {
		return &FetchError{Op: "in_edges", Verts: len(dsts), Err: err}
	}
	for _, v := range dsts {
		visit(l.cfg.Graph.InNeighbors(v))
	}
	return nil
}

// Sample runs the configured UDF over the roots, each root seeded from
// (epochSeed, root) via nau.VertexSeed, fanned across the kernel parallelism.
// Records are concatenated in root order, so the result is deterministic
// regardless of parallelism.
func (l *Local) Sample(ctx context.Context, roots []graph.VertexID, epochSeed uint64) ([]hdg.Record, error) {
	if l.cfg.Schema == nil || l.cfg.UDF == nil {
		return nil, &FetchError{Op: "sample", Verts: len(roots),
			Err: fmt.Errorf("store: no schema/UDF configured")}
	}
	if err := ctx.Err(); err != nil {
		return nil, &FetchError{Op: "sample", Verts: len(roots), Err: err}
	}
	return nau.SelectRecords(l.cfg.Graph, l.cfg.Schema, l.cfg.UDF, roots, epochSeed, 0), nil
}

// Gather copies the requested feature rows, labels and mask bits.
func (l *Local) Gather(ctx context.Context, verts []graph.VertexID) (*FeatureSlice, error) {
	if err := ctx.Err(); err != nil {
		return nil, &FetchError{Op: "features", Verts: len(verts), Err: err}
	}
	idx := make([]int32, len(verts))
	for i, v := range verts {
		idx[i] = int32(v)
	}
	fs := &FeatureSlice{
		Feats:  tensor.Gather(l.cfg.Features, idx),
		Labels: make([]int32, len(verts)),
		Mask:   make([]bool, len(verts)),
	}
	for i, v := range verts {
		if l.cfg.Labels != nil {
			fs.Labels[i] = l.cfg.Labels[v]
		}
		if l.cfg.TrainMask != nil {
			fs.Mask[i] = l.cfg.TrainMask[v]
		}
	}
	return fs, nil
}
