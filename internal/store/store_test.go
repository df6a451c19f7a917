package store

import (
	"context"
	"errors"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/nau"
	"repro/internal/rpc"
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

// remotePair wires a Remote client to a Server over a loopback network and
// returns a cleanup-registered pair.
func remotePair(t *testing.T, l *Local, opts RemoteOptions) *Remote {
	t.Helper()
	netw := rpc.NewLoopbackNetwork(2)
	srv := NewServer(l, netw.Transport(1), ServerOptions{})
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve() }()
	opts.Peer = 1
	opts.NumVertices = l.NumVertices()
	opts.Dim = l.FeatureDim()
	r := NewRemote(netw.Transport(0), opts)
	t.Cleanup(func() {
		r.Close()
		srv.Close()
		<-done
		netw.Close()
	})
	return r
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
	// lists may come from a remote store.
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

func TestRecordsCodecRoundTrip(t *testing.T) {
	recs := []hdg.Record{
		{Root: 3, Type: 1, Nei: []graph.VertexID{7, 9, 7}},
		{Root: 4, Type: 0, Nei: nil},
		{Root: 5, Type: 2, Nei: []graph.VertexID{1}},
	}
	got, err := decodeRecords(encodeRecords(recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Root != recs[i].Root || got[i].Type != recs[i].Type ||
			len(got[i].Nei) != len(recs[i].Nei) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
		for j := range recs[i].Nei {
			if got[i].Nei[j] != recs[i].Nei[j] {
				t.Fatalf("record %d leaf %d mismatch", i, j)
			}
		}
	}
	if _, err := decodeRecords([]int32{1, 0}); err == nil {
		t.Fatal("truncated header must error")
	}
	if _, err := decodeRecords([]int32{1, 0, 5, 2}); err == nil {
		t.Fatal("overlong leaf count must error")
	}
}

func TestRemoteMatchesLocal(t *testing.T) {
	d, l := testLocal(t, 1)
	r := remotePair(t, l, RemoteOptions{})
	ctx := context.Background()
	roots := firstRoots(d, 24)

	collect := func(gs GraphStore) (lists [][]graph.VertexID) {
		t.Helper()
		err := gs.InEdges(ctx, roots, func(nbrs []graph.VertexID) {
			lists = append(lists, slices.Clone(nbrs))
		})
		if err != nil || len(lists) != len(roots) {
			t.Fatalf("in-edges: %d lists for %d roots, err %v", len(lists), len(roots), err)
		}
		return lists
	}
	lNbrs, rNbrs := collect(l), collect(r)
	for i := range roots {
		if len(lNbrs[i]) != len(rNbrs[i]) {
			t.Fatalf("in-edges %d: %d vs %d neighbors", i, len(lNbrs[i]), len(rNbrs[i]))
		}
		for j := range lNbrs[i] {
			if lNbrs[i][j] != rNbrs[i][j] {
				t.Fatalf("in-edges %d neighbor %d differs", i, j)
			}
		}
	}

	es := nau.EpochSeed(7, 0)
	lRecs, err := l.Sample(ctx, roots, es)
	if err != nil {
		t.Fatal(err)
	}
	rRecs, err := r.Sample(ctx, roots, es)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lRecs, rRecs) {
		t.Fatal("remote sample differs from local")
	}

	lSub, err := l.KHopInduced(ctx, roots[:8], 2)
	if err != nil {
		t.Fatal(err)
	}
	rSub, err := r.KHopInduced(ctx, roots[:8], 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lSub.Vertices, rSub.Vertices) {
		t.Fatal("khop vertex sets differ")
	}
	if !reflect.DeepEqual(lSub.Adj.DstPtr, rSub.Adj.DstPtr) ||
		!reflect.DeepEqual(lSub.Adj.SrcIdx, rSub.Adj.SrcIdx) ||
		lSub.Adj.NumDst != rSub.Adj.NumDst || lSub.Adj.NumSrc != rSub.Adj.NumSrc {
		t.Fatal("khop adjacencies differ")
	}

	lFS, err := l.Gather(ctx, roots)
	if err != nil {
		t.Fatal(err)
	}
	rFS, err := r.Gather(ctx, roots)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lFS.Feats.Data(), rFS.Feats.Data()) ||
		!reflect.DeepEqual(lFS.Labels, rFS.Labels) ||
		!reflect.DeepEqual(lFS.Mask, rFS.Mask) {
		t.Fatal("remote gather differs from local")
	}
}

// A vertex ID that names no vertex arrives off the wire like any other: the
// server must reject the query with the error reply (the client's typed
// *FetchError) instead of indexing the graph with it, for every op, and go
// on serving.
func TestServerRejectsOutOfRangeVertexIDs(t *testing.T) {
	d, l := testLocal(t, 1)
	r := remotePair(t, l, RemoteOptions{})
	ctx := context.Background()
	ops := map[string]func(ids []graph.VertexID) error{
		"in_edges": func(ids []graph.VertexID) error {
			return r.InEdges(ctx, ids, func([]graph.VertexID) {})
		},
		"sample":   func(ids []graph.VertexID) error { _, err := r.Sample(ctx, ids, nau.EpochSeed(7, 0)); return err },
		"khop":     func(ids []graph.VertexID) error { _, err := r.KHopInduced(ctx, ids, 2); return err },
		"features": func(ids []graph.VertexID) error { _, err := r.Gather(ctx, ids); return err },
	}
	n := graph.VertexID(d.Graph.NumVertices())
	for name, op := range ops {
		for _, bad := range []graph.VertexID{-1, n, 1 << 30} {
			var fe *FetchError
			if err := op([]graph.VertexID{0, bad}); !errors.As(err, &fe) || fe.Op != name {
				t.Fatalf("%s with vertex %d: err %v, want *FetchError", name, bad, err)
			}
		}
		if err := op([]graph.VertexID{0, n - 1}); err != nil {
			t.Fatalf("%s after a rejected query: %v", name, err)
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
		if w.Index != g.Index || !reflect.DeepEqual(w.In, g.In) ||
			!reflect.DeepEqual(w.RootRows, g.RootRows) {
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
		{Hops: 2, Seed: 11}, // §7.1 k-hop
	}
	for mi, base := range modes {
		var ref []*Batch
		for _, cfg := range []struct{ depth, workers int }{{0, 1}, {1, 2}, {3, 4}} {
			o := base
			o.Depth, o.Workers = cfg.depth, cfg.workers
			s := NewSampler(l, l, o)
			got := collect(t, s.Epoch(context.Background(), 0, batches))
			if ref == nil {
				ref = got
				continue
			}
			requireSameBatches(t, ref, got)
			_ = mi
		}
	}
}

// TestSamplerMemoMatchesDirectSample is the selection memo's oracle: every
// plan of every batch the memoised sampler delivers — In, Out and the
// sub-HDG's arrays — equals store.Expand over the same frontiers with sel
// calling Sample directly, at Depth 0 and at Depth 2 with three workers
// sharing the memo, over a Local store (one-leaf random-walk instances and
// two-leaf instances) and a Remote one. Three epochs run on one sampler, so
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
		"remote":      remotePair(t, l, RemoteOptions{Window: 4}),
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

func TestSamplerOverRemoteMatchesLocal(t *testing.T) {
	d, l := testLocal(t, 5)
	r := remotePair(t, l, RemoteOptions{Window: 4})
	batches := batchesOf(d, 64, 16)
	opts := SamplerOptions{Layers: 1, Schema: hdg.NewSchemaTree("vertex"), Seed: 13, Depth: 2, Workers: 3}

	want := collect(t, NewSampler(l, l, opts).Epoch(context.Background(), 2, batches))
	got := collect(t, NewSampler(r, r, opts).Epoch(context.Background(), 2, batches))
	requireSameBatches(t, want, got)
}

func TestSamplerKHopRootRows(t *testing.T) {
	d, l := testLocal(t, 9)
	roots := []graph.VertexID{30, 2, 17}
	s := NewSampler(l, l, SamplerOptions{Hops: 2, Seed: 1})
	st := s.Epoch(context.Background(), 0, [][]graph.VertexID{roots})
	defer st.Close()
	b, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range roots {
		if b.In[b.RootRows[i]] != v {
			t.Fatalf("root %d: row %d holds %d, want %d", i, b.RootRows[i], b.In[b.RootRows[i]], v)
		}
	}
	_ = d
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

func TestFaultTransportCrashDuringFeatureGather(t *testing.T) {
	d, l := testLocal(t, 33)
	netw := rpc.NewLoopbackNetwork(2)
	defer netw.Close()
	srv := NewServer(l, netw.Transport(1), ServerOptions{})
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve() }()
	defer func() { srv.Close(); <-done }()

	// Crash the client transport on its first outgoing feature gather
	// (Layer = opFeatures); graph queries (lower opcodes) pass through.
	ft := rpc.NewFaultTransport(netw.Transport(0), rpc.FaultConfig{
		CrashAtFence: true, CrashEpoch: 0, CrashPhase: opFeatures,
	})
	r := NewRemote(ft, RemoteOptions{
		Peer: 1, NumVertices: l.NumVertices(), Dim: l.FeatureDim(),
		RecvDeadline: 5 * time.Second,
	})
	defer r.Close()

	s := NewSampler(r, r, SamplerOptions{Layers: 1, Seed: 3, Depth: 2, Workers: 2})
	st := s.Epoch(context.Background(), 0, batchesOf(d, 32, 8))
	defer st.Close()

	start := time.Now()
	var err error
	for {
		if _, err = st.Next(); err != nil {
			break
		}
	}
	if errors.Is(err, io.EOF) {
		t.Fatal("stream completed despite crash")
	}
	var fe *FetchError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FetchError, got %T: %v", err, err)
	}
	if !errors.Is(err, rpc.ErrCrashed) {
		t.Fatalf("want rpc.ErrCrashed cause, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("crash took %v to surface, want well under the recv deadline", elapsed)
	}
}

func TestRemoteFailsFastOnServerDeath(t *testing.T) {
	d, l := testLocal(t, 41)
	netw := rpc.NewLoopbackNetwork(2)
	defer netw.Close()
	srv := NewServer(l, netw.Transport(1), ServerOptions{})
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve() }()

	r := NewRemote(netw.Transport(0), RemoteOptions{
		Peer: 1, NumVertices: l.NumVertices(), Dim: l.FeatureDim(),
		RecvDeadline: 30 * time.Second,
	})
	defer r.Close()

	// Kill the server and drop the link: the client observes the dead
	// network and every call must fail well before the 30s deadline.
	srv.Close()
	netw.Close()
	<-done

	start := time.Now()
	_, err := r.Gather(context.Background(), firstRoots(d, 4))
	if err == nil {
		t.Fatal("gather against a dead server must fail")
	}
	var fe *FetchError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FetchError, got %T: %v", err, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dead-server failure took %v", elapsed)
	}
}
