package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/nau"
	"repro/internal/tensor"
)

// testUDF selects up to two random out-neighbors per root (self-loop when
// isolated) — a seeded selection whose result depends only on the RNG state,
// so per-vertex seeding makes it batch-composition independent.
func testUDF(g *graph.Graph, schema *hdg.SchemaTree, v graph.VertexID, rng *tensor.RNG) []hdg.Record {
	out := g.OutNeighbors(v)
	if len(out) == 0 {
		return []hdg.Record{{Root: v, Nei: []graph.VertexID{v}}}
	}
	k := 2
	if len(out) < k {
		k = len(out)
	}
	nei := make([]graph.VertexID, k)
	for i := range nei {
		nei[i] = out[rng.Uint64()%uint64(len(out))]
	}
	return []hdg.Record{{Root: v, Nei: nei}}
}

func testLocal(t *testing.T, seed uint64) (*dataset.Dataset, *Local) {
	t.Helper()
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: seed})
	l := NewLocal(LocalConfig{
		Graph: d.Graph, Features: d.Features, Labels: d.Labels, TrainMask: d.TrainMask,
		Schema: hdg.NewSchemaTree("vertex"), UDF: testUDF,
	})
	return d, l
}

func firstRoots(d *dataset.Dataset, n int) []graph.VertexID {
	if nv := d.Graph.NumVertices(); n > nv {
		n = nv
	}
	roots := make([]graph.VertexID, n)
	for i := range roots {
		roots[i] = graph.VertexID(i)
	}
	return roots
}

// listStore is a GraphStore that answers InEdges from a fixed table.
type listStore struct {
	*Local
	nbrs map[graph.VertexID][]graph.VertexID
}

func (l listStore) InEdges(_ context.Context, dsts []graph.VertexID, visit func([]graph.VertexID)) error {
	for _, v := range dsts {
		visit(l.nbrs[v])
	}
	return nil
}

func TestUniverseOrdering(t *testing.T) {
	u := NewUniverse(16)
	if err := u.Reset(nil, []graph.VertexID{5, 3, 9}); err != nil {
		t.Fatal(err)
	}
	if len(u.Vertices()) != 3 || u.Add(3) != 1 {
		t.Fatalf("seed rows wrong: len=%d row(3)=%d", len(u.Vertices()), u.Add(3))
	}
	if r := u.Add(5); r != 0 {
		t.Fatalf("re-adding seed must return its row, got %d", r)
	}
	if r := u.Add(7); r != 3 {
		t.Fatalf("new vertex must append, got row %d", r)
	}
	if u.Add(16) != -1 || u.Add(-1) != -1 || len(u.Vertices()) != 4 {
		t.Fatal("a vertex outside the graph must be refused")
	}

	gs := listStore{nbrs: map[graph.VertexID][]graph.VertexID{5: {9, 7, 11}, 3: {5}}}
	adj, err := u.InEdgeAdjacency(context.Background(), gs, []graph.VertexID{5, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if adj.NumDst != 2 || adj.NumSrc != len(u.Vertices()) {
		t.Fatalf("adjacency dims: dst=%d src=%d universe=%d", adj.NumDst, adj.NumSrc, len(u.Vertices()))
	}
	wantPtr := []int64{0, 3, 4}
	wantIdx := []int32{2, 3, 4, 0} // 9->2, 7->3, 11 appended as 4, 5->0
	if !reflect.DeepEqual(adj.DstPtr, wantPtr) || !reflect.DeepEqual(adj.SrcIdx, wantIdx) {
		t.Fatalf("adjacency ptr=%v idx=%v, want %v %v", adj.DstPtr, adj.SrcIdx, wantPtr, wantIdx)
	}

	// A neighbor or a seed outside the graph is an error, not a panic: the
	// lists come from whatever GraphStore the caller passed.
	gs.nbrs[3] = []graph.VertexID{99}
	var fe *FetchError
	if _, err := u.InEdgeAdjacency(context.Background(), gs, []graph.VertexID{3}, nil); !errors.As(err, &fe) {
		t.Fatalf("out-of-range neighbor: err = %v, want *FetchError", err)
	}
	if err := u.Reset(nil, []graph.VertexID{2, 16}); err == nil {
		t.Fatal("out-of-range seed must error")
	}
}

// TestUniverseReuseMatchesFresh: a universe reused across 1000 random
// frontiers (its generation counter wrapping on the way, its buffers and
// adjacency arrays recycled) yields exactly the In, Adj and SubHDG of a
// universe made fresh for each, and SubHDG gives the new leaves the rows of
// LeafVertexSet's sorted order.
func TestUniverseReuseMatchesFresh(t *testing.T) {
	d, l := testLocal(t, 1)
	n := d.Graph.NumVertices()
	schema := hdg.NewSchemaTree("vertex")
	ctx := context.Background()
	rng := tensor.NewRNG(5)
	reused := NewUniverse(n)
	reused.gen = math.MaxUint32 - 300 // wraps about a third of the way in
	var in []graph.VertexID
	var adj *engine.Adjacency
	for trial := 0; trial < 1000; trial++ {
		frontier := make([]graph.VertexID, 0, 24)
		for _, v := range rng.Perm(n)[:1+rng.Intn(24)] {
			frontier = append(frontier, graph.VertexID(v))
		}
		fresh := NewUniverse(n)
		if err := fresh.Reset(nil, frontier); err != nil {
			t.Fatal(err)
		}
		if err := reused.Reset(in, frontier); err != nil {
			t.Fatal(err)
		}
		if trial%2 == 0 {
			want, err := fresh.InEdgeAdjacency(ctx, l, frontier, nil)
			if err != nil {
				t.Fatal(err)
			}
			if adj, err = reused.InEdgeAdjacency(ctx, l, frontier, adj); err != nil {
				t.Fatal(err)
			}
			if adj.NumDst != want.NumDst || adj.NumSrc != want.NumSrc ||
				!slices.Equal(adj.DstPtr, want.DstPtr) || !slices.Equal(adj.SrcIdx, want.SrcIdx) {
				t.Fatalf("trial %d: reused adjacency differs from fresh", trial)
			}
		} else {
			recs := make([]hdg.Record, 0, len(frontier))
			for _, v := range frontier {
				recs = append(recs, hdg.Record{Root: v, Nei: d.Graph.InNeighbors(v)})
			}
			want, err := hdg.Build(schema, frontier, recs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := hdg.Build(schema, frontier, recs)
			if err != nil {
				t.Fatal(err)
			}
			// The rows LeafVertexSet's sorted order gives: the frontier,
			// then every other leaf ascending.
			rows := slices.Clone(frontier)
			for _, v := range want.LeafVertexSet() {
				if !slices.Contains(frontier, v) {
					rows = append(rows, v)
				}
			}
			if err := fresh.SubHDG(want); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(fresh.Vertices(), rows) {
				t.Fatalf("trial %d: sub-HDG rows %v, want %v", trial, fresh.Vertices(), rows)
			}
			if err := reused.SubHDG(got); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.LeafIDs, want.LeafIDs) {
				t.Fatalf("trial %d: reused sub-HDG leaves differ from fresh", trial)
			}
		}
		in = reused.Vertices()
		if !slices.Equal(in, fresh.Vertices()) {
			t.Fatalf("trial %d: reused In differs from fresh", trial)
		}
		for row, v := range in {
			if got := reused.Add(v); got != int32(row) {
				t.Fatalf("trial %d: vertex %d has row %d, want %d", trial, v, got, row)
			}
		}
	}
	if reused.gen > 1000 {
		t.Fatalf("generation %d: the counter never wrapped", reused.gen)
	}
}

// TestExpandResident: with a nil Universe, Expand builds the plan a bottom
// layer reads the resident feature matrix through. A DNFA plan's sources are
// the store's in-lists appended verbatim over every vertex of the graph; an
// HDG plan's leaves are the records' vertex IDs in record order, for
// one-leaf (flat) and two-leaf (hierarchical) instances alike. Either way Out
// is the frontier, In is empty, and the plan reads the same vertex at every
// position as a universe plan over the same frontier reads through its rows.
// One resident plan is rebuilt in place throughout.
func TestExpandResident(t *testing.T) {
	d, pairs := testLocal(t, 1)
	walks := NewLocal(LocalConfig{Graph: d.Graph, Schema: hdg.NewSchemaTree("vertex"), UDF: nau.RandomWalkUDF(4, 2, 3)})
	n := d.Graph.NumVertices()
	ctx := context.Background()
	schema := hdg.NewSchemaTree("vertex")
	rng := tensor.NewRNG(11)
	u := NewUniverse(n)
	var res, univ LayerPlan
	for trial := 0; trial < 200; trial++ {
		var frontier []graph.VertexID
		for _, v := range rng.Perm(n)[:1+rng.Intn(24)] {
			frontier = append(frontier, graph.VertexID(v))
		}
		if err := Expand(ctx, pairs, nil, nil, frontier, nil, &res); err != nil {
			t.Fatal(err)
		}
		var lists []graph.VertexID
		ptr := []int64{0}
		if err := pairs.InEdges(ctx, frontier, func(nbrs []graph.VertexID) {
			lists = append(lists, nbrs...)
			ptr = append(ptr, int64(len(lists)))
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Out, frontier) || len(res.In) != 0 || res.Sub != nil {
			t.Fatalf("trial %d: resident DNFA plan Out %v In %v, want the frontier and no universe", trial, res.Out, res.In)
		}
		if a := res.Adj; a.NumSrc != n || a.NumDst != len(frontier) ||
			!slices.Equal(a.SrcIdx, lists) || !slices.Equal(a.DstPtr, ptr) {
			t.Fatalf("trial %d: resident adjacency (dst %d, src %d) is not the store's lists over %d vertices",
				trial, a.NumDst, a.NumSrc, n)
		}
		if err := Expand(ctx, pairs, nil, u, frontier, nil, &univ); err != nil {
			t.Fatal(err)
		}
		for e, row := range univ.Adj.SrcIdx {
			if univ.In[row] != res.Adj.SrcIdx[e] {
				t.Fatalf("trial %d edge %d: universe plan reads %d, resident plan %d", trial, e, univ.In[row], res.Adj.SrcIdx[e])
			}
		}

		for _, gs := range []*Local{walks, pairs} {
			sel := func(f []graph.VertexID) ([]hdg.Record, error) { return gs.Sample(ctx, f, 5) }
			recs, err := sel(frontier)
			if err != nil {
				t.Fatal(err)
			}
			var leaves []graph.VertexID
			for _, r := range recs {
				leaves = append(leaves, r.Nei...)
			}
			if err := Expand(ctx, gs, schema, nil, frontier, sel, &res); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Out, frontier) || len(res.In) != 0 || res.Adj != nil {
				t.Fatalf("trial %d: resident HDG plan Out %v In %v, want the frontier and no universe", trial, res.Out, res.In)
			}
			if !slices.Equal(res.Sub.LeafIDs, leaves) {
				t.Fatalf("trial %d: resident leaves %v, want the records' %v", trial, res.Sub.LeafIDs, leaves)
			}
			if err := Expand(ctx, gs, schema, u, frontier, sel, &univ); err != nil {
				t.Fatal(err)
			}
			for i, row := range univ.Sub.LeafIDs {
				if univ.In[row] != leaves[i] {
					t.Fatalf("trial %d leaf %d: universe plan reads %d, resident plan %d", trial, i, univ.In[row], leaves[i])
				}
			}
		}
	}
}

// rangeStub is a GraphStore whose every in-list and record names vertex
// bad next to a valid one.
type rangeStub struct {
	*Local
	bad graph.VertexID
}

func (s rangeStub) InEdges(_ context.Context, dsts []graph.VertexID, visit func([]graph.VertexID)) error {
	for range dsts {
		visit([]graph.VertexID{1, s.bad})
	}
	return nil
}

func (s rangeStub) Sample(_ context.Context, roots []graph.VertexID, _ uint64) ([]hdg.Record, error) {
	recs := make([]hdg.Record, len(roots))
	for i, v := range roots {
		recs[i] = hdg.Record{Root: v, Nei: []graph.VertexID{1, s.bad}}
	}
	return recs, nil
}

// TestExpandRefusesVerticesOutsideTheGraph: a neighbor or leaf the store
// names outside the graph comes back from Expand as a *FetchError naming the
// query — resident or not — and never reaches the engine's row checks.
func TestExpandRefusesVerticesOutsideTheGraph(t *testing.T) {
	d, l := testLocal(t, 1)
	n := d.Graph.NumVertices()
	ctx := context.Background()
	schema := hdg.NewSchemaTree("vertex")
	for _, bad := range []graph.VertexID{graph.VertexID(n), -1} {
		gs := rangeStub{Local: l, bad: bad}
		sel := func(f []graph.VertexID) ([]hdg.Record, error) { return gs.Sample(ctx, f, 0) }
		for _, u := range []*Universe{nil, NewUniverse(n)} {
			for _, c := range []struct {
				schema *hdg.SchemaTree
				op     string
			}{{nil, "in_edges"}, {schema, "sample"}} {
				var p LayerPlan
				err := Expand(ctx, gs, c.schema, u, []graph.VertexID{0, 2}, sel, &p)
				var fe *FetchError
				if !errors.As(err, &fe) || fe.Op != c.op {
					t.Fatalf("vertex %d, resident %v, %s: err %v, want a *FetchError{Op: %q}", bad, u == nil, c.op, err, c.op)
				}
			}
		}
	}
}

// collect drains one epoch's stream into a slice.
func collect(t *testing.T, st *Stream) []*Batch {
	t.Helper()
	defer st.Close()
	var out []*Batch
	for {
		b, err := st.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
}

func batchesOf(d *dataset.Dataset, n, size int) [][]graph.VertexID {
	roots := firstRoots(d, n)
	var out [][]graph.VertexID
	for s := 0; s < len(roots); s += size {
		e := s + size
		if e > len(roots) {
			e = len(roots)
		}
		out = append(out, roots[s:e])
	}
	return out
}

func requireSameBatches(t *testing.T, want, got []*Batch) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("batch counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Index != g.Index || !reflect.DeepEqual(w.In, g.In) {
			t.Fatalf("batch %d universe differs", i)
		}
		if !reflect.DeepEqual(w.Feats.Data(), g.Feats.Data()) ||
			!reflect.DeepEqual(w.Labels, g.Labels) || !reflect.DeepEqual(w.Mask, g.Mask) {
			t.Fatalf("batch %d features differ", i)
		}
		if len(w.Plans) != len(g.Plans) {
			t.Fatalf("batch %d plan counts differ", i)
		}
		for l := range w.Plans {
			wp, gp := w.Plans[l], g.Plans[l]
			if !reflect.DeepEqual(wp.In, gp.In) {
				t.Fatalf("batch %d layer %d universes differ", i, l)
			}
			if (wp.Adj == nil) != (gp.Adj == nil) {
				t.Fatalf("batch %d layer %d adjacency presence differs", i, l)
			}
			if wp.Adj != nil && (!reflect.DeepEqual(wp.Adj.DstPtr, gp.Adj.DstPtr) ||
				!reflect.DeepEqual(wp.Adj.SrcIdx, gp.Adj.SrcIdx)) {
				t.Fatalf("batch %d layer %d adjacencies differ", i, l)
			}
		}
	}
}

func TestSamplerDepthAndWorkerInvariance(t *testing.T) {
	d, l := testLocal(t, 3)
	batches := batchesOf(d, 96, 16)
	modes := []SamplerOptions{
		{Layers: 2, Seed: 11}, // layered DNFA
		{Layers: 1, Schema: hdg.NewSchemaTree("vertex"), Seed: 11}, // flat sample
	}
	for _, base := range modes {
		var ref []*Batch
		for _, cfg := range []struct{ depth, workers int }{{0, 1}, {1, 2}, {2, 3}, {3, 4}} {
			o := base
			o.Depth, o.Workers = cfg.depth, cfg.workers
			s := NewSampler(l, l, o)
			got := collect(t, s.Epoch(context.Background(), 0, batches))
			if ref == nil {
				ref = got
				continue
			}
			requireSameBatches(t, ref, got)
		}
	}
}

// TestSamplerMemoMatchesDirectSample is the selection memo's oracle: every
// plan of every batch the memoised sampler delivers — In, Out and the
// sub-HDG's arrays — equals store.Expand over the same frontiers with sel
// calling Sample directly, at Depth 0 and at Depth 2 with three workers
// sharing the memo, over two Local stores (one-leaf random-walk instances
// and two-leaf instances). Three epochs run on one sampler, so
// each epoch's memo is the previous one reset: a selection that leaked
// across the boundary would match the wrong epoch's reference. Every batch
// is released after the check, so later batches are rebuilt in recycled
// storage.
func TestSamplerMemoMatchesDirectSample(t *testing.T) {
	d, l := testLocal(t, 17)
	walks := NewLocal(LocalConfig{
		Graph: d.Graph, Features: d.Features, Labels: d.Labels, TrainMask: d.TrainMask,
		Schema: hdg.NewSchemaTree("vertex"), UDF: nau.RandomWalkUDF(4, 2, 3),
	})
	ctx := context.Background()
	schema := hdg.NewSchemaTree("vertex")
	batches := batchesOf(d, 96, 16)
	const layers, seed = 2, 19
	for name, gs := range map[string]GraphStore{
		"local-walks": walks,
		"local-pairs": l,
	} {
		for _, cfg := range []struct{ depth, workers int }{{0, 1}, {2, 3}} {
			s := NewSampler(gs, l, SamplerOptions{Layers: layers, Schema: schema, Seed: seed,
				Depth: cfg.depth, Workers: cfg.workers})
			var firstEpoch [][]graph.VertexID // each batch's layer-0 In in epoch 0
			for epoch := 0; epoch < 3; epoch++ {
				direct := func(f []graph.VertexID) ([]hdg.Record, error) {
					return gs.Sample(ctx, f, nau.EpochSeed(seed, epoch))
				}
				moved := false
				st := s.Epoch(ctx, epoch, batches)
				for i := 0; ; i++ {
					b, err := st.Next()
					if errors.Is(err, io.EOF) {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					u := NewUniverse(d.Graph.NumVertices())
					want := make([]LayerPlan, layers)
					frontier := batches[i]
					for li := layers - 1; li >= 0; li-- {
						if err := Expand(ctx, gs, schema, u, frontier, direct, &want[li]); err != nil {
							t.Fatal(err)
						}
						frontier = want[li].In
					}
					for li := range want {
						w, g := want[li], b.Plans[li]
						if !slices.Equal(w.In, g.In) || !slices.Equal(w.Out, g.Out) ||
							!slices.Equal(w.Sub.Roots, g.Sub.Roots) || w.Sub.IsFlat() != g.Sub.IsFlat() ||
							!slices.Equal(w.Sub.InstOffset, g.Sub.InstOffset) ||
							!slices.Equal(w.Sub.LeafOffset, g.Sub.LeafOffset) ||
							!slices.Equal(w.Sub.LeafIDs, g.Sub.LeafIDs) {
							t.Fatalf("%s depth %d epoch %d batch %d layer %d: memoised plan differs from direct Sample",
								name, cfg.depth, epoch, i, li)
						}
					}
					if !slices.Equal(b.In, want[0].In) || len(b.Labels) != len(b.In) || b.Feats.Rows() != len(b.In) {
						t.Fatalf("%s depth %d epoch %d batch %d: universe or gathered rows differ", name, cfg.depth, epoch, i)
					}
					if epoch == 0 {
						firstEpoch = append(firstEpoch, slices.Clone(want[0].In))
					} else {
						moved = moved || !slices.Equal(firstEpoch[i], want[0].In)
					}
					st.Release(b)
				}
				st.Close()
				if epoch > 0 && !moved {
					t.Fatalf("%s: epoch %d selects what epoch 0 did: the check cannot tell epochs apart", name, epoch)
				}
			}
		}
	}
}

// TestLocalAnswersFromTheGraph holds each Local query to an oracle computed
// from the dataset directly, and to its failure contract: a cancelled
// context is a *FetchError naming the query, with the cancellation as its
// cause.
func TestLocalAnswersFromTheGraph(t *testing.T) {
	d, l := testLocal(t, 1)
	g := d.Graph
	roots := []graph.VertexID{0, 7, 3, 7, 25}
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	requireCancelled := func(t *testing.T, op string, err error) {
		t.Helper()
		var fe *FetchError
		if !errors.As(err, &fe) || fe.Op != op || fe.Verts != len(roots) || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled %s: err %v, want *FetchError{Op: %q, Verts: %d} caused by context.Canceled",
				op, err, op, len(roots))
		}
	}

	t.Run("in_edges", func(t *testing.T) {
		i := 0
		err := l.InEdges(ctx, roots, func(nbrs []graph.VertexID) {
			if i >= len(roots) || !slices.Equal(nbrs, g.InNeighbors(roots[i])) {
				t.Fatalf("visit %d: %v is not root %d's in-neighbor list", i, nbrs, roots[i])
			}
			i++
		})
		if err != nil || i != len(roots) {
			t.Fatalf("%d visits for %d roots, err %v", i, len(roots), err)
		}
		requireCancelled(t, "in_edges", l.InEdges(cancelled, roots, func([]graph.VertexID) {}))
	})

	t.Run("sample", func(t *testing.T) {
		es := nau.EpochSeed(7, 2)
		got, err := l.Sample(ctx, roots, es)
		if err != nil {
			t.Fatal(err)
		}
		if want := nau.SelectRecords(g, hdg.NewSchemaTree("vertex"), testUDF, roots, es, 0); !reflect.DeepEqual(got, want) {
			t.Fatal("Sample differs from SelectRecords at the same epoch seed")
		}
		_, err = l.Sample(cancelled, roots, es)
		requireCancelled(t, "sample", err)
		dnfa := NewLocal(LocalConfig{Graph: g, Features: d.Features})
		var fe *FetchError
		if _, err := dnfa.Sample(ctx, roots, es); !errors.As(err, &fe) || fe.Op != "sample" {
			t.Fatalf("Sample without a schema: err %v, want *FetchError", err)
		}
	})

	t.Run("features", func(t *testing.T) {
		fs, err := l.Gather(ctx, roots)
		if err != nil {
			t.Fatal(err)
		}
		if fs.Feats.Rows() != len(roots) || fs.Feats.Cols() != l.FeatureDim() {
			t.Fatalf("gathered %dx%d, want %dx%d", fs.Feats.Rows(), fs.Feats.Cols(), len(roots), l.FeatureDim())
		}
		for i, v := range roots {
			if !slices.Equal(fs.Feats.Row(i), d.Features.Row(int(v))) ||
				fs.Labels[i] != d.Labels[v] || fs.Mask[i] != d.TrainMask[v] {
				t.Fatalf("row %d is not vertex %d's", i, v)
			}
		}
		// No labels or mask configured: zeros and false, one per row.
		bare, err := NewLocal(LocalConfig{Graph: g, Features: d.Features}).Gather(ctx, roots)
		if err != nil {
			t.Fatal(err)
		}
		if len(bare.Labels) != len(roots) || len(bare.Mask) != len(roots) ||
			slices.ContainsFunc(bare.Labels, func(c int32) bool { return c != 0 }) || slices.Contains(bare.Mask, true) {
			t.Fatalf("bare gather: labels %v mask %v, want zeros and false", bare.Labels, bare.Mask)
		}
		_, err = l.Gather(cancelled, roots)
		requireCancelled(t, "features", err)
	})
}

// errStoreDown is the cause failingStores reports.
var errStoreDown = errors.New("store down")

// failingStores wraps a Local and fails one query kind — op, named as in
// FetchError — whenever the query starts at vertex at. Every query the
// sampler makes for a one-layer batch starts at the batch's first root, so
// exactly the batch beginning with at fails, whichever worker builds it.
type failingStores struct {
	*Local
	op string
	at graph.VertexID
}

func (f *failingStores) fails(op string, verts []graph.VertexID) error {
	if op == f.op && len(verts) > 0 && verts[0] == f.at {
		return &FetchError{Op: op, Verts: len(verts), Err: errStoreDown}
	}
	return nil
}

func (f *failingStores) InEdges(ctx context.Context, dsts []graph.VertexID, visit func([]graph.VertexID)) error {
	if err := f.fails("in_edges", dsts); err != nil {
		return err
	}
	return f.Local.InEdges(ctx, dsts, visit)
}

func (f *failingStores) Sample(ctx context.Context, roots []graph.VertexID, epochSeed uint64) ([]hdg.Record, error) {
	if err := f.fails("sample", roots); err != nil {
		return nil, err
	}
	return f.Local.Sample(ctx, roots, epochSeed)
}

func (f *failingStores) Gather(ctx context.Context, verts []graph.VertexID) (*FeatureSlice, error) {
	if err := f.fails("features", verts); err != nil {
		return nil, err
	}
	return f.Local.Gather(ctx, verts)
}

// TestSamplerSurfacesStoreFailure: a store query that fails while a batch
// is materialised reaches the trainer as the store's own *FetchError, cause
// intact, at that batch's place in the schedule — the batches before it
// arrive, no later one does, the stream never reports a clean io.EOF, and
// Close leaves no sampler goroutine behind. Each query kind fails in the
// extraction mode that issues it, synchronously and with prefetch workers.
func TestSamplerSurfacesStoreFailure(t *testing.T) {
	d, l := testLocal(t, 33)
	batches := batchesOf(d, 64, 8)
	const failAt = 5
	modes := map[string]SamplerOptions{
		"in_edges": {Layers: 1, Seed: 3},
		"sample":   {Layers: 1, Schema: hdg.NewSchemaTree("vertex"), Seed: 3},
		"features": {Layers: 1, Seed: 3},
	}
	for _, op := range []string{"in_edges", "sample", "features"} {
		for _, cfg := range []struct{ depth, workers int }{{0, 1}, {2, 3}} {
			t.Run(fmt.Sprintf("%s-depth%d", op, cfg.depth), func(t *testing.T) {
				base := runtime.NumGoroutine()
				f := &failingStores{Local: l, op: op, at: batches[failAt][0]}
				o := modes[op]
				o.Depth, o.Workers = cfg.depth, cfg.workers
				st := NewSampler(f, f, o).Epoch(context.Background(), 0, batches)
				for i := 0; i < failAt; i++ {
					b, err := st.Next()
					if err != nil {
						t.Fatalf("batch %d before the failing one: %v", i, err)
					}
					if b.Index != i {
						t.Fatalf("got batch %d, want %d", b.Index, i)
					}
				}
				_, err := st.Next()
				fe, ok := err.(*FetchError)
				if !ok || fe.Op != op || !errors.Is(err, errStoreDown) {
					t.Fatalf("batch %d: err %T %v, want the store's *FetchError{Op: %q}", failAt, err, err, op)
				}
				if _, again := st.Next(); again != err {
					t.Fatalf("Next after the failure: %v, want the same error", again)
				}
				st.Close()
				waitGoroutines(t, base)
			})
		}
	}
}

// slowStores wraps a Local with a per-gather delay so prefetch tests can
// hold batches in flight deterministically.
type slowStores struct {
	*Local
	delay time.Duration
}

func (s *slowStores) Gather(ctx context.Context, verts []graph.VertexID) (*FeatureSlice, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, &FetchError{Op: "features", Verts: len(verts), Err: ctx.Err()}
	}
	return s.Local.Gather(ctx, verts)
}

func TestPrefetchCancelDrainsCleanly(t *testing.T) {
	d, l := testLocal(t, 21)
	slow := &slowStores{Local: l, delay: 20 * time.Millisecond}
	batches := batchesOf(d, 256, 8) // 32 batches, far more than the pipeline consumes
	ctx, cancel := context.WithCancel(context.Background())
	s := NewSampler(l, slow, SamplerOptions{Layers: 1, Seed: 3, Depth: 2, Workers: 4})
	st := s.Epoch(ctx, 0, batches)
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	// The stream must fail with the cancellation, not hang or deliver the
	// whole schedule.
	deadline := time.After(5 * time.Second)
	for i := 0; ; i++ {
		type res struct {
			b   *Batch
			err error
		}
		ch := make(chan res, 1)
		go func() { b, err := st.Next(); ch <- res{b, err} }()
		select {
		case r := <-ch:
			if r.err != nil {
				if !errors.Is(r.err, context.Canceled) {
					t.Fatalf("want context.Canceled, got %v", r.err)
				}
				goto closed
			}
			if i > len(batches) {
				t.Fatal("stream kept delivering after cancel")
			}
		case <-deadline:
			t.Fatal("Next hung after cancel")
		}
	}
closed:
	done := make(chan struct{})
	go func() { st.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung after cancel")
	}
}
