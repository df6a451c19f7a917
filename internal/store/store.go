// Package store is the data plane of the distributed runtime: it decouples
// where graph topology and vertex features live from the trainer that
// consumes them, so neighbor selection and feature gathers can run ahead of
// the compute they feed (§5's pipelining applied to the input side).
//
// Two narrow interfaces split the responsibilities the production systems
// the paper compares against also split (GraphLearn, distributed PyG):
// GraphStore answers topology and neighbor-selection queries, FeatureStore
// serves vertex feature/label slices. Local implements both in memory over
// the CSR graph. The Sampler on top materialises self-contained training
// batches through them, overlapping the next batch's selection and gather
// with the current batch's forward/backward. It has one extraction: one
// LayerPlan per model layer, built top-down by Expand, the frontier
// expansion the serve planner calls too. (The §7.1 full-neighbourhood
// conversion is a baseline's strategy, not a data-plane mode:
// internal/baseline's Euler/DistDGL executor expands its own batches.)
package store

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/nau"
	"repro/internal/tensor"
)

// GraphStore answers topology and neighbor-selection queries. All methods
// are safe for concurrent use and surface failures as *FetchError.
type GraphStore interface {
	// NumVertices returns the vertex count of the stored graph.
	NumVertices() int
	// InEdges calls visit once per destination, in order, with its 1-hop
	// in-neighbor list in whole-graph order — the DNFA dependency
	// structure. The lists are read-only views valid only during the call
	// (visit must neither mutate nor keep them); on an error, whatever was
	// visited so far is to be discarded.
	InEdges(ctx context.Context, dsts []graph.VertexID, visit func(nbrs []graph.VertexID)) error
	// Sample runs the store's configured neighbor UDF over the roots with
	// per-vertex seeds derived from (epochSeed, root), so a vertex's
	// records do not depend on which batch it arrived in — the property
	// that makes prefetch order unable to change training results. The
	// Sampler leans on it harder: it asks once per vertex and epoch and
	// reuses the records in every frontier that reaches the vertex, so they
	// must be a pure function of (epochSeed, vertex). Records come back
	// grouped by root, roots in request order (what nau.SelectRecords
	// emits); the caller owns them.
	Sample(ctx context.Context, roots []graph.VertexID, epochSeed uint64) ([]hdg.Record, error)
	// Close releases the store's resources.
	Close() error
}

// FeatureStore serves vertex feature rows, labels and train-mask bits.
type FeatureStore interface {
	// FeatureDim returns the feature row width.
	FeatureDim() int
	// Gather returns the features, labels and train-mask bits of the given
	// vertices, one row per vertex in input order.
	Gather(ctx context.Context, verts []graph.VertexID) (*FeatureSlice, error)
	// Close releases the store's resources.
	Close() error
}

// FeatureSlice is a feature-gather result: one row per requested vertex, in
// request order.
type FeatureSlice struct {
	Feats  *tensor.Tensor
	Labels []int32
	Mask   []bool
}

// FetchError is the typed failure of a store operation: which query failed
// and why. The prefetch pipeline propagates it to the trainer unwrapped, so
// errors.As(*store.FetchError) — and errors.Is against its cause, e.g.
// context.Canceled — both work from the training loop.
type FetchError struct {
	// Op names the query: "sample", "in_edges", "features".
	Op string
	// Verts is the request size (number of vertices queried).
	Verts int
	// Err is the underlying cause.
	Err error
}

func (e *FetchError) Error() string {
	return fmt.Sprintf("store: %s query over %d vertices: %v", e.Op, e.Verts, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *FetchError) Unwrap() error { return e.Err }

// VertexSeed forwards to nau.VertexSeed, where the seed formula lives. It
// stays only because benchmark/probes.go, which is frozen, calls it.
func VertexSeed(epochSeed uint64, v graph.VertexID) uint64 { return nau.VertexSeed(epochSeed, v) }
