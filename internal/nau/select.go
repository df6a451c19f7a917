package nau

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// arena is one selection worker's storage: the instances of a contiguous
// run of roots laid out as the HDG stores them, so joining the workers'
// arenas is one presized copy. A selector appends an instance's leaves to
// leaves and closes them with split; begin opens the next root.
type arena struct {
	types  int
	slots  []int32          // per (root, type) of the run: end of its instances in ends
	ends   []int32          // per instance: end of its leaves in leaves
	leaves []graph.VertexID // leaves[closed:] belong to no instance yet
	closed int
	typ    int      // the open root's last closed type
	visits []uint32 // see visitTable
	rng    tensor.RNG
	err    error
}

// reset empties a for a run under a schema of the given types.
func (a *arena) reset(types int) {
	a.types, a.closed, a.err = types, 0, nil
	a.slots, a.ends, a.leaves = a.slots[:0], a.ends[:0], a.leaves[:0]
}

// visitTable returns a's per-vertex table over g — walk counts, BFS marks,
// duplicate roots — all zero between uses, made on a's first use over a
// graph this large, so only the selections that need one pay for it.
func (a *arena) visitTable(g *graph.Graph) []uint32 {
	if len(a.visits) < g.NumVertices() {
		a.visits = make([]uint32, g.NumVertices())
	}
	return a.visits
}

// begin opens the next root, dropping any leaf the last one left open.
func (a *arena) begin() {
	a.leaves, a.typ = a.leaves[:a.closed], 0
	for range a.types {
		a.slots = append(a.slots, int32(len(a.ends)))
	}
}

// split closes the leaves appended since the last split into instances of
// type t, size >= 1 leaves each — hdg.Build's record checks on the appending
// side: no instance is empty, and a type outside the schema, or below one the
// root already closed, fails the selection (leaving the leaves open).
func (a *arena) split(t, size int) {
	if len(a.leaves) == a.closed {
		return
	}
	if t < a.typ || t >= a.types {
		a.err = cmp.Or(a.err, fmt.Errorf("hdg: record type %d out of range [%d,%d)", t, a.typ, a.types))
		return
	}
	a.typ = t
	for end := a.closed + size; end < len(a.leaves); end += size {
		a.ends = append(a.ends, int32(end))
	}
	a.ends, a.closed = append(a.ends, int32(len(a.leaves))), len(a.leaves)
	row := a.slots[len(a.slots)-a.types:]
	for j := t; j < a.types; j++ {
		row[j] = int32(len(a.ends))
	}
}

// fanOut is the one selection driver, behind both sinks: it runs run(w, s,
// e) over n roots in contiguous chunks w = [s, e) — adjacent in the CSR — on
// at most workers goroutines (<= 0: the kernel parallelism, at most one per
// tensor.DefaultGrain roots), and returns the chunk count.
func fanOut(n, workers int, run func(w, s, e int)) int {
	if workers <= 0 {
		workers = min(tensor.Parallelism(), (n+tensor.DefaultGrain-1)/tensor.DefaultGrain)
	}
	workers = max(1, min(workers, n))
	chunk := max(1, (n+workers-1)/workers)
	var wg sync.WaitGroup
	for s := chunk; s < n; s += chunk {
		wg.Add(1)
		go func(w, s int) {
			defer wg.Done()
			run(w, s, min(s+chunk, n))
		}(s/chunk, s)
	}
	run(0, 0, min(chunk, n))
	wg.Wait()
	return max(1, (n+chunk-1)/chunk)
}

// selectHDG is the HDG sink: each worker runs sel over its chunk of roots
// into its own arena, root v on an RNG seeded VertexSeed(epochSeed, v), and
// stitch joins them — bitwise what hdg.Build makes of SelectRecords over
// sel.UDF(), at any fan-out. arenas grows to the fan-out and keeps its
// storage for the next call; reuse, when non-nil, is an HDG nothing reads
// any more, whose arrays the result takes over.
func selectHDG(g *graph.Graph, schema *hdg.SchemaTree, sel Selector, roots []graph.VertexID,
	epochSeed uint64, workers int, arenas *[]*arena, reuse *hdg.HDG) (*hdg.HDG, error) {
	if schema == nil || sel.run == nil {
		return nil, errNoSchemaOrUDF
	}
	for len(*arenas) < max(1, workers, tensor.Parallelism()) {
		*arenas = append(*arenas, new(arena))
	}
	as, T := *arenas, schema.NumTypes()
	// hdg.Build's duplicate-root check, in O(n) on the visit table.
	var dup error
	seen := as[0].visitTable(g)
	for _, r := range roots {
		if seen[r] != 0 {
			dup = cmp.Or(dup, fmt.Errorf("hdg: duplicate root %d", r))
		}
		seen[r] = 1
	}
	for _, r := range roots {
		seen[r] = 0
	}
	if dup != nil {
		return nil, dup
	}
	chunks := fanOut(len(roots), workers, func(w, s, e int) {
		a := as[w]
		a.reset(T)
		for i := s; i < e; i++ {
			a.rng.SetState(VertexSeed(epochSeed, roots[i]))
			a.begin()
			sel.run(g, roots[i], &a.rng, a)
		}
	})
	return stitch(schema, roots, as[:chunks], reuse)
}

// stitch joins the arenas of consecutive chunks into the HDG over roots (in
// reuse's arrays when given), shifting each chunk's instance and leaf ends by
// what the chunks before it hold; it is flat when every instance is one leaf.
func stitch(schema *hdg.SchemaTree, roots []graph.VertexID, as []*arena, reuse *hdg.HDG) (*hdg.HDG, error) {
	if reuse == nil {
		reuse = &hdg.HDG{}
	}
	inst, leaves := 0, 0
	for _, a := range as {
		if a.err != nil {
			return nil, a.err
		}
		inst, leaves = inst+len(a.ends), leaves+a.closed
	}
	instOffset := append(slices.Grow(reuse.InstOffset[:0], len(roots)*schema.NumTypes()+1), 0)
	leafIDs := slices.Grow(reuse.LeafIDs[:0], leaves)
	var leafOffset []int32
	if leaves > inst {
		leafOffset = append(slices.Grow(reuse.LeafOffset[:0], inst+1), 0)
	}
	var ib, lb int32
	for _, a := range as {
		for _, s := range a.slots {
			instOffset = append(instOffset, ib+s)
		}
		if leafOffset != nil {
			for _, e := range a.ends {
				leafOffset = append(leafOffset, lb+e)
			}
		}
		leafIDs = append(leafIDs, a.leaves[:a.closed]...)
		ib, lb = ib+int32(len(a.ends)), lb+int32(a.closed)
	}
	rs := append(slices.Grow(reuse.Roots[:0], len(roots)), roots...)
	return hdg.New(schema, rs, instOffset, leafOffset, leafIDs), nil
}

// selectLayer builds the HDG of roots with layer's neighbor selection, root v
// seeded VertexSeed(epochSeed, v) and the fan-out bounded by workers: through
// the appending sink, on the caller's arenas and over reuse's storage, when
// layer is an AppendingLayer; otherwise through its NeighborUDF's records and
// hdg.Build — the same HDG either way.
func selectLayer(g *graph.Graph, layer Layer, roots []graph.VertexID, epochSeed uint64,
	workers int, arenas *[]*arena, reuse *hdg.HDG) (*hdg.HDG, error) {
	if al, ok := layer.(AppendingLayer); ok {
		return selectHDG(g, layer.Schema(), al.Selector(), roots, epochSeed, workers, arenas, reuse)
	}
	return neighborSelectionSeeded(g, layer.Schema(), layer.NeighborUDF(), roots, epochSeed, workers)
}

// Selection is the NeighborSelection state a Program keeps for its context, so that a warm selection
// allocates nothing that grows with the graph: the workers' arenas and the
// last two HDGs with the flat levels the context built over them. A new HDG is
// written over the one two selections old, never over the one a forward pass
// or a Predict result may still hold. The zero value is ready to use.
type Selection struct {
	arenas []*arena
	hdgs   [2]*hdg.HDG // hdgs[1] is the context's
	flats  [2]*engine.Adjacency

	// ahead is the next HDG, selected in the background until aheadDone.
	ahead     aheadSelection
	aheadDone sync.WaitGroup
}

// aheadSelection is an HDG selected for the holder's next selection, with what
// it was selected from: adoptAhead installs it only while these still hold.
type aheadSelection struct {
	h         *hdg.HDG // nil if selection failed: the holder reselects and reports it
	epochSeed uint64
	graph     *graph.Graph
	layer     Layer
	roots     []graph.VertexID
}

// Select builds the HDG of roots over g with layer's neighbor selection, root
// v seeded VertexSeed(epochSeed, v), writes it over the HDG two selections
// back and points ctx at it. On an error ctx keeps the HDG it had.
func (s *Selection) Select(ctx *Context, g *graph.Graph, layer Layer, roots []graph.VertexID, epochSeed uint64) error {
	h, err := selectLayer(g, layer, roots, epochSeed, 0, &s.arenas, s.hdgs[0])
	if err != nil {
		return err
	}
	s.install(ctx, h)
	return nil
}

// install points ctx at h, written over hdgs[0], and rotates: the HDG ctx read
// until now and its flat level stay intact until the next selection, and the
// flat level over the HDG h replaced goes back to ctx to be refilled.
func (s *Selection) install(ctx *Context, h *hdg.HDG) {
	s.flats[1] = ctx.flatAdj
	ctx.InvalidateHDG(h)
	ctx.spareFlat = s.flats[0]
	s.hdgs, s.flats = [2]*hdg.HDG{s.hdgs[1], h}, [2]*engine.Adjacency{s.flats[1], nil}
}

// selectAhead starts the holder's next selection in the background — Select's
// work, over all Ps but the one left to the foreground — timed and traced to
// p. Selection reads the graph and the roots, never parameters. The holder
// waits for aheadDone before it touches s or the roots again, and selects next
// through adoptAhead. layer must be comparable.
func (s *Selection) selectAhead(p Probe, g *graph.Graph, layer Layer, roots []graph.VertexID, epochSeed uint64) {
	a := &s.ahead
	*a = aheadSelection{epochSeed: epochSeed, graph: g, layer: layer, roots: roots}
	s.aheadDone.Add(1)
	go func() {
		defer s.aheadDone.Done()
		defer p.Tracer.Begin(p.Rank, p.Epoch, 0, trace.CatStage, "select").End()
		p.Timer.Time(metrics.StageNeighborSelection, func() {
			a.h, _ = selectLayer(g, layer, roots, epochSeed, max(1, tensor.Parallelism()-1), &s.arenas, s.hdgs[0])
		})
	}()
}

// adoptAhead installs the HDG selected ahead, as Select installs its own, if
// it was selected at epochSeed over g, layer and roots. Otherwise it drops
// it, keeping its storage for the next selection, and reports false.
func (s *Selection) adoptAhead(ctx *Context, epochSeed uint64, g *graph.Graph, layer Layer, roots []graph.VertexID) bool {
	a := s.ahead
	s.ahead = aheadSelection{}
	if a.h == nil {
		return false
	}
	if a.epochSeed != epochSeed || a.graph != g || a.layer != layer || !slices.Equal(a.roots, roots) {
		s.hdgs[0] = a.h // hdgs[0]'s storage, grown to fit
		return false
	}
	s.install(ctx, a.h)
	return true
}
