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
)

// streamEpoch consumes one epoch through the sampler, simulating `train` of
// forward/backward compute per batch, and returns the wall-clock time.
func streamEpoch(t *testing.T, s *Sampler, batches [][]graph.VertexID, train time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	st := s.Epoch(context.Background(), 0, batches)
	defer st.Close()
	for {
		_, err := st.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(train)
	}
	return time.Since(start)
}

// TestPrefetchOverlapBeatsSyncOnSlowStore is the overlap guard: over a
// feature store whose every gather takes 4 ms, prefetch depth 2 with 2
// sampler workers must stream an epoch materially faster than the
// synchronous depth-0 reference, because each batch's gather overlaps the
// simulated training compute and the other worker's gather. The margin is
// deliberately loose so scheduler noise cannot flake it.
func TestPrefetchOverlapBeatsSyncOnSlowStore(t *testing.T) {
	const delay = 4 * time.Millisecond
	const train = 4 * time.Millisecond
	d, l := testLocal(t, 7)
	slow := &slowStores{Local: l, delay: delay}
	n := d.Graph.NumVertices()
	batches := batchesOf(d, n, (n+7)/8) // about 8 batches
	epoch := func(depth, workers int) time.Duration {
		s := NewSampler(l, slow, SamplerOptions{
			Layers: 1, Schema: hdg.NewSchemaTree("vertex"), Seed: 3,
			Depth: depth, Workers: workers,
		})
		return streamEpoch(t, s, batches, train)
	}

	syncWall := epoch(0, 0)
	preWall := epoch(2, 2)
	t.Logf("sync epoch %v, prefetch epoch %v", syncWall, preWall)
	if float64(preWall) > 0.8*float64(syncWall) {
		t.Fatalf("prefetch did not overlap: depth-2 epoch %v vs depth-0 epoch %v (want < 80%%)",
			preWall, syncWall)
	}
}

// BenchmarkExpand times store.Expand alone — the frontier expansion the
// sampler and the serve planner share — over 64-vertex frontiers of
// TwitterLike x0.25, with sel calling Sample directly. inedges is the DNFA
// expansion as the serve executor drives it above the first layer (one
// universe and one plan, rebuilt in place); subhdg is the HDG expansion as a
// sampler worker drives it (its own universe, and the plan of a released
// batch rebuilt in place); resident is the DNFA expansion of the serve
// executor's first layer (no universe: sources stay vertex IDs).
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
		name     string
		schema   *hdg.SchemaTree
		resident bool
	}{{"inedges", nil, false}, {"subhdg", schema, false}, {"resident", nil, true}} {
		b.Run(c.name, func(b *testing.B) {
			u := NewUniverse(n)
			if c.resident {
				u = nil
			}
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
