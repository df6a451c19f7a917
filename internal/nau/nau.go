// Package nau implements the paper's core contribution: the NAU programming
// abstraction (§3.2, Fig. 4). A GNN layer is expressed as three stages —
//
//	NeighborSelection(g, schema, nbr_udf) -> HDGs
//	Aggregation(feas, HDGs)               -> nbr_feas
//	Update(feas, nbr_feas)                -> feas'
//
// NeighborSelection runs a user-defined function per vertex to build
// hierarchical dependency graphs; Aggregation reduces neighbor features
// bottom-up through the HDG levels using the hybrid execution engine; and
// Update combines each vertex's previous feature with its neighborhood
// representation using NN operations only.
//
// DNFA models (direct 1-hop neighbors) return a nil schema: no HDG is built
// and the input graph itself captures the dependencies, exactly as §7.4
// observes for GCN. HDGs can be cached across layers and epochs per the
// model's CachePolicy (§3.2's Discussion).
package nau

import (
	"errors"
	"slices"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// NeighborUDF customises how a vertex retrieves its "neighbors" from the
// graph (the paper's nbr_udf, Fig. 5). It returns one record per neighbor
// instance.
type NeighborUDF func(g *graph.Graph, schema *hdg.SchemaTree, v graph.VertexID, rng *tensor.RNG) []hdg.Record

// CachePolicy controls when NeighborSelection re-runs (§3.2 Discussion).
type CachePolicy int

const (
	// CachePerEpoch rebuilds HDGs once per epoch and shares them across
	// layers — PinSage's policy (random walks differ across epochs).
	CachePerEpoch CachePolicy = iota
	// CacheForever builds HDGs once for the whole training run — MAGNN's
	// policy (metapath instances never change).
	CacheForever
)

// Layer is one GNN layer expressed in NAU.
type Layer interface {
	nn.Module
	// Schema returns the layer's schema tree, or nil for DNFA layers that
	// use the input graph directly (no HDG is built).
	Schema() *hdg.SchemaTree
	// NeighborUDF returns the neighbor-selection UDF; it is never called
	// when Schema is nil.
	NeighborUDF() NeighborUDF
	// Aggregation computes neighborhood representations from the previous
	// layer's features, guided by ctx's HDG (or the input graph).
	Aggregation(ctx *Context, feats *nn.Value) *nn.Value
	// Update combines the previous features with the neighborhood
	// representations using NN operations.
	Update(ctx *Context, feats, nbrFeats *nn.Value) *nn.Value
}

// BottomAggregator intercepts the bottom-level (leaf-to-instance or 1-hop)
// aggregation. The distributed runtime installs one that partially
// aggregates remote contributions and synchronises across workers (§5);
// when nil, the local hybrid engine runs the level directly.
type BottomAggregator interface {
	AggregateBottom(adj *engine.Adjacency, feats *nn.Value, op tensor.ReduceOp) (*nn.Value, error)
}

// Context carries everything a layer's Aggregation needs: the graph, the
// layer's HDGs, the hybrid execution engine and cached level adjacencies.
type Context struct {
	Graph  *graph.Graph
	HDG    *hdg.HDG // nil for DNFA layers
	Engine *engine.Engine
	RNG    *tensor.RNG
	Train  bool

	// Bottom, when non-nil, replaces the engine for bottom-level
	// aggregation (set by the distributed runtime).
	Bottom BottomAggregator

	// NumFeatureRows is the size of the feature universe leaf IDs index
	// into (the graph's vertex count on a single machine).
	NumFeatureRows int

	graphAdj  *engine.Adjacency
	bottomAdj *engine.Adjacency
	flatAdj   *engine.Adjacency
	// spareFlat, when non-nil, is an adjacency nothing reads any more, whose
	// storage the next FlatAdjacency refills (a Selection hands it back).
	spareFlat *engine.Adjacency

	// input is the leaf Input handed the driver; kept is the bottom
	// aggregate computed from it, which no step after the first recomputes.
	input *nn.Value
	kept  keptBottom

	// err is the first failure the Bottom hook reported during the layer
	// being run; RunLayer returns and clears it after Aggregation.
	err error
}

// keptBottom is one bottom-level aggregate of the context's declared input:
// the level it ran over, the reduction, and the result as a constant leaf
// (a leaf, so nn.ReleaseGraph never returns its buffer to the pool).
type keptBottom struct {
	adj *engine.Adjacency
	op  tensor.ReduceOp
	out *nn.Value
}

// Input returns the constant leaf a whole-graph driver feeds the model's
// first layer: the same Value for as long as t is the same tensor. Handing
// the features over this way is the driver's promise that t's contents never
// change — replace the tensor, do not write into it. When m's dependency
// structure outlives an epoch too (DNFA, or HDGs cached forever) nothing the
// first layer's bottom aggregate reads can differ from one step to the next,
// so AggregateBottom computes it once and keeps it. A model that re-selects
// its HDGs every epoch gets a plain constant: there would be nothing to hit,
// and a kept result is a buffer the pool does not get back.
func (c *Context) Input(m *Model, t *tensor.Tensor) *nn.Value {
	if m.NeedsHDG() && m.Cache != CacheForever {
		return nn.Constant(t)
	}
	if c.input == nil || c.input.Data != t {
		c.input, c.kept = nn.Constant(t), keptBottom{}
	}
	return c.input
}

// AggregateBottom runs the bottom-level aggregation through the installed
// BottomAggregator, or the hybrid engine when none is installed. Models
// should use this instead of calling the engine directly so they run
// unchanged on a single machine and in the distributed runtime.
//
// The aggregate of the leaf Input returned is epoch-invariant: the first one
// a step computes is kept (with the level and the reduction it was computed
// for) and every later step that asks for the same one gets the kept leaf —
// the engine is not run and the Bottom hook is not called, so on a cluster
// rank the level's exchange does not happen either. Every rank's context
// sees the same sequence of calls, so ranks hit and miss together. The kept
// result is dropped wherever the level's identity changes (InvalidateHDG,
// SetGraphAdjacency) and with the input tensor (Input). Every other feats —
// a differentiable value, an interior node, a batch's gathered rows — takes
// the plain path and touches none of this.
func (c *Context) AggregateBottom(adj *engine.Adjacency, feats *nn.Value, op tensor.ReduceOp) *nn.Value {
	if feats != c.input {
		return c.aggregateBottom(adj, feats, op)
	}
	k := &c.kept
	if k.out != nil && k.adj == adj && k.op == op {
		return k.out
	}
	out := c.aggregateBottom(adj, feats, op)
	if k.out != nil || c.err != nil {
		// A second, different aggregate of the input (computed every step,
		// the kept one stays), or a failed hook's stand-in.
		return out
	}
	*k = keptBottom{adj: adj, op: op, out: nn.Constant(out.Data)}
	return k.out
}

// aggregateBottom is AggregateBottom's miss path: the hook, or the engine.
//
// Layer.Aggregation has no error return, so a failing hook cannot stop the
// model mid-layer: the first error is kept on the context for RunLayer to
// return, and the model gets a zero constant of the shape the level would
// have produced, so whatever it still computes on top (MAGNN's upper levels)
// stays in range. Once a layer has failed the hook is not called again — a
// dead collective would only time out a second time.
func (c *Context) aggregateBottom(adj *engine.Adjacency, feats *nn.Value, op tensor.ReduceOp) *nn.Value {
	if c.Bottom == nil {
		return c.Engine.AggregateBottom(adj, feats, op)
	}
	if c.err == nil {
		out, err := c.Bottom.AggregateBottom(adj, feats, op)
		if err == nil {
			return out
		}
		c.err = err
	}
	return nn.Constant(tensor.New(adj.NumDst, feats.Data.Cols()))
}

// GraphAdjacency returns the 1-hop in-edge adjacency of the input graph,
// built lazily and cached — the DNFA aggregation level.
func (c *Context) GraphAdjacency() *engine.Adjacency {
	if c.graphAdj == nil {
		c.graphAdj = engine.FromGraphInEdges(c.Graph)
	}
	return c.graphAdj
}

// BottomAdjacency returns the HDG's bottom-level adjacency (hierarchical
// HDGs only), cached.
func (c *Context) BottomAdjacency() *engine.Adjacency {
	if c.bottomAdj == nil {
		c.bottomAdj = engine.FromHDGBottom(c.HDG, c.NumFeatureRows)
	}
	return c.bottomAdj
}

// FlatAdjacency returns the flat HDG's leaf->root adjacency, cached.
func (c *Context) FlatAdjacency() *engine.Adjacency {
	if c.flatAdj == nil {
		c.flatAdj, c.spareFlat = engine.FlatInto(c.spareFlat, c.HDG, c.NumFeatureRows), nil
	}
	return c.flatAdj
}

// RecycleFlat hands the context spare, a flat adjacency nothing reads any
// more (FlatAdjacency's result for an earlier HDG), whose storage the next
// FlatAdjacency refills. Call it after InvalidateHDG.
func (c *Context) RecycleFlat(spare *engine.Adjacency) { c.spareFlat = spare }

// SetGraphAdjacency overrides the 1-hop adjacency; the distributed runtime
// installs each worker's local-root view here.
func (c *Context) SetGraphAdjacency(adj *engine.Adjacency) {
	c.graphAdj = adj
	c.kept = keptBottom{}
}

// InvalidateHDG replaces the context's HDG and drops cached adjacencies.
func (c *Context) InvalidateHDG(h *hdg.HDG) {
	c.HDG = h
	c.bottomAdj = nil
	c.flatAdj = nil
	c.kept = keptBottom{}
}

// EpochSeed derives an epoch's selection seed from the run seed. With
// VertexSeed it is the one seed formula of neighbor selection: every driver —
// the Trainer, a cluster rank, the simulator, the mini-batch sampler and the
// serving planner — seeds root v of epoch e with
// VertexSeed(EpochSeed(seed, e), v) (Model.SelectionSeed adds the cache
// policy), so a vertex's neighborhood depends on neither its batch nor its
// rank nor the driver.
func EpochSeed(seed uint64, epoch int) uint64 {
	return seed ^ (uint64(epoch+1) * 0x9e3779b97f4a7c15)
}

// VertexSeed derives a root's private RNG seed from the epoch seed and its
// vertex ID: the records a vertex selects are a pure function of (epochSeed,
// vertex), no matter which batch, worker or prefetch slot ran the selection.
func VertexSeed(epochSeed uint64, v graph.VertexID) uint64 {
	return epochSeed ^ (uint64(v)+1)*0xbf58476d1ce4e5b9
}

// NeighborSelection runs the UDF for every root in parallel and builds the
// HDGs (the paper's Fig. 4 first stage). It draws one epoch seed from rng and
// seeds each root by VertexSeed, so results are deterministic for a fixed
// seed and independent of how the roots are spread over workers. A rejected
// call leaves rng where it was.
func NeighborSelection(g *graph.Graph, schema *hdg.SchemaTree, udf NeighborUDF, roots []graph.VertexID, rng *tensor.RNG) (*hdg.HDG, error) {
	if schema == nil || udf == nil {
		return nil, errNoSchemaOrUDF
	}
	return neighborSelectionSeeded(g, schema, udf, roots, rng.Uint64(), 0)
}

var errNoSchemaOrUDF = errors.New("nau: NeighborSelection requires a schema and a UDF")

// neighborSelectionSeeded is NeighborSelection with the caller's epoch seed
// and fan-out bound (see SelectRecords for both): the record sink followed by
// hdg.Build.
func neighborSelectionSeeded(g *graph.Graph, schema *hdg.SchemaTree, udf NeighborUDF, roots []graph.VertexID, epochSeed uint64, workers int) (*hdg.HDG, error) {
	if schema == nil || udf == nil {
		return nil, errNoSchemaOrUDF
	}
	return hdg.Build(schema, roots, SelectRecords(g, schema, udf, roots, epochSeed, workers))
}

// SelectRecords is the record sink of the one selection driver (fanOut):
// neighborSelectionSeeded builds an HDG from its output, and the store's
// Sample query — through which the sampler and the serving planner select —
// calls it directly. Root v runs udf on an RNG seeded VertexSeed(epochSeed,
// v), and the records come back concatenated in root order, so the result is
// bitwise independent of the fan-out; workers only bounds how many goroutines
// selection may take (see fanOut).
func SelectRecords(g *graph.Graph, schema *hdg.SchemaTree, udf NeighborUDF, roots []graph.VertexID, epochSeed uint64, workers int) []hdg.Record {
	perRoot := make([][]hdg.Record, len(roots))
	fanOut(len(roots), workers, func(_, s, e int) {
		rng := tensor.NewRNG(0)
		for i := s; i < e; i++ {
			rng.SetState(VertexSeed(epochSeed, roots[i]))
			perRoot[i] = udf(g, schema, roots[i], rng)
		}
	})
	return slices.Concat(perRoot...)
}

// AllVertices returns the full root set [0, n) for whole-graph training.
func AllVertices(g *graph.Graph) []graph.VertexID {
	roots := make([]graph.VertexID, g.NumVertices())
	for i := range roots {
		roots[i] = graph.VertexID(i)
	}
	return roots
}
