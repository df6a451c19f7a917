package store

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/nau"
	"repro/internal/rpc"
)

// latencyRemote wires a Remote client to a Server over loopback, with every
// client request held for `delay` before hitting the wire (FaultTransport
// with DelayProb 1) — a deterministic simulated-latency link. Cleanup is
// registered on tb.
func latencyRemote(tb testing.TB, l *Local, opts RemoteOptions, delay time.Duration) *Remote {
	tb.Helper()
	netw := rpc.NewLoopbackNetwork(2)
	srv := NewServer(l, netw.Transport(1), ServerOptions{})
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve() }()
	opts.Peer = 1
	opts.NumVertices = l.NumVertices()
	opts.Dim = l.FeatureDim()
	tr := rpc.NewFaultTransport(netw.Transport(0), rpc.FaultConfig{
		Seed: 1, DelayProb: 1, Delay: delay,
	})
	r := NewRemote(tr, opts)
	tb.Cleanup(func() {
		r.Close()
		srv.Close()
		<-done
		netw.Close()
	})
	return r
}

// streamEpoch consumes one epoch through the sampler, simulating `train` of
// forward/backward compute per batch, and returns the wall-clock time.
func streamEpoch(tb testing.TB, s *Sampler, batches [][]graph.VertexID, train time.Duration) time.Duration {
	tb.Helper()
	start := time.Now()
	st := s.Epoch(context.Background(), 0, batches)
	defer st.Close()
	for {
		_, err := st.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			tb.Fatal(err)
		}
		time.Sleep(train)
	}
	return time.Since(start)
}

func overlapFixture(tb testing.TB, delay time.Duration, depth, workers int) (*Sampler, [][]graph.VertexID) {
	tb.Helper()
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 7})
	l := NewLocal(LocalConfig{
		Graph: d.Graph, Features: d.Features, Labels: d.Labels, TrainMask: d.TrainMask,
		Schema: hdg.NewSchemaTree("vertex"), UDF: testUDF,
	})
	r := latencyRemote(tb, l, RemoteOptions{}, delay)
	s := NewSampler(r, r, SamplerOptions{
		Layers: 1, Schema: hdg.NewSchemaTree("vertex"), Seed: 3,
		Depth: depth, Workers: workers,
	})
	n := d.Graph.NumVertices()
	bs := (n + 7) / 8 // 8 batches
	var batches [][]graph.VertexID
	for s := 0; s < n; s += bs {
		e := s + bs
		if e > n {
			e = n
		}
		b := make([]graph.VertexID, e-s)
		for i := range b {
			b[i] = graph.VertexID(s + i)
		}
		batches = append(batches, b)
	}
	return s, batches
}

// TestPrefetchOverlapBeatsSyncOnSlowLink is the overlap guard: on a
// simulated-latency store link, prefetch depth 2 with 2 sampler workers must
// stream an epoch materially faster than the synchronous depth-0 reference,
// because batch materialisation (two RPC round trips per batch) overlaps the
// simulated training compute and the other worker's RPCs. The margin is
// deliberately loose so scheduler noise cannot flake it.
func TestPrefetchOverlapBeatsSyncOnSlowLink(t *testing.T) {
	const delay = 4 * time.Millisecond
	const train = 4 * time.Millisecond

	sync, syncBatches := overlapFixture(t, delay, 0, 0)
	syncWall := streamEpoch(t, sync, syncBatches, train)

	pre, preBatches := overlapFixture(t, delay, 2, 2)
	preWall := streamEpoch(t, pre, preBatches, train)

	t.Logf("sync epoch %v, prefetch epoch %v", syncWall, preWall)
	if float64(preWall) > 0.8*float64(syncWall) {
		t.Fatalf("prefetch did not overlap: depth-2 epoch %v vs depth-0 epoch %v (want < 80%%)",
			preWall, syncWall)
	}
}

// BenchmarkPrefetchOverlap measures one epoch of batch streaming over the
// simulated-latency link (4 ms per request, 4 ms simulated training compute
// per batch, 8 batches) at increasing prefetch depths. Recorded numbers live
// in BENCH_sampler.json; regenerate with `make bench-sampler`.
func BenchmarkPrefetchOverlap(b *testing.B) {
	const delay = 4 * time.Millisecond
	const train = 4 * time.Millisecond
	for _, cfg := range []struct {
		name           string
		depth, workers int
	}{
		{"depth0", 0, 0},
		{"depth1_workers1", 1, 1},
		{"depth2_workers2", 2, 2},
		{"depth4_workers4", 4, 4},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			s, batches := overlapFixture(b, delay, cfg.depth, cfg.workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				streamEpoch(b, s, batches, train)
			}
		})
	}
}

// BenchmarkExpand times store.Expand alone — the frontier expansion the
// sampler and the serve planner share — over 64-vertex frontiers of
// TwitterLike x0.25, with sel calling Sample directly. inedges is the DNFA
// expansion as the serve executor drives it (one universe and one plan,
// rebuilt in place); subhdg is the HDG expansion as a sampler worker drives
// it (its own universe, and the plan of a released batch rebuilt in place).
func BenchmarkExpand(b *testing.B) {
	d, err := dataset.ByName("twitter", dataset.Config{Scale: 0.25, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	schema := hdg.NewSchemaTree("vertex")
	l := NewLocal(LocalConfig{Graph: d.Graph, Schema: schema, UDF: testUDF})
	n := d.Graph.NumVertices()
	frontiers := batchesOf(d, n, 64)
	sel := func(f []graph.VertexID) ([]hdg.Record, error) { return l.Sample(context.Background(), f, 7) }
	for _, c := range []struct {
		name   string
		schema *hdg.SchemaTree
	}{{"inedges", nil}, {"subhdg", schema}} {
		b.Run(c.name, func(b *testing.B) {
			u := NewUniverse(n)
			var p LayerPlan
			expand := func(i int) {
				if err := Expand(context.Background(), l, c.schema, u, frontiers[i%len(frontiers)], sel, &p); err != nil {
					b.Fatal(err)
				}
			}
			for i := range frontiers { // grow the reused arrays to their steady state
				expand(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				expand(i)
			}
		})
	}
}

// BenchmarkSamplerEpoch times one rank's sampler epoch at the
// cluster_pinsage_k2_minibatch shape: TwitterLike x0.2 (2400 vertices), the
// first 1200 of them as roots in batches of 128, two PinSage layers (10 walks
// x 3 hops, top 10), synchronous (Depth 0), every batch released after use as
// the cluster worker releases it. The epoch's selection memo asks the store
// once per distinct vertex; the released batches, the memo and the worker's
// universe are reused by the next epoch, so what an epoch allocates is the
// store's records for its distinct selections.
func BenchmarkSamplerEpoch(b *testing.B) {
	d, err := dataset.ByName("twitter", dataset.Config{Scale: 0.2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	schema := hdg.NewSchemaTree("vertex")
	l := NewLocal(LocalConfig{
		Graph: d.Graph, Features: d.Features, Labels: d.Labels, TrainMask: d.TrainMask,
		Schema: schema, UDF: nau.RandomWalkUDF(10, 3, 10),
	})
	batches := batchesOf(d, 1200, 128)
	b.Run("pinsage", func(b *testing.B) {
		s := NewSampler(l, l, SamplerOptions{Layers: 2, Schema: schema, Seed: 1})
		epoch := func(e int) {
			st := s.Epoch(context.Background(), e, batches)
			defer st.Close()
			for {
				bt, err := st.Next()
				if errors.Is(err, io.EOF) {
					return
				}
				if err != nil {
					b.Fatal(err)
				}
				st.Release(bt)
			}
		}
		epoch(0) // grow the reused storage to its steady state
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			epoch(i + 1)
		}
	})
}
