package serve

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/tensor"
)

// coldServer stands up the serve_direct_uniform stack of the end-to-end
// benchmark — TwitterLike at the given scale, GCN-64, embedding cache off —
// so every query pays its full plan and forward pass.
func coldServer(tb testing.TB, scale float64) (*Server, *dataset.Dataset) {
	tb.Helper()
	d, err := dataset.ByName("twitter", dataset.Config{Scale: scale, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	model := models.NewGCN(d.FeatureDim(), 64, d.NumClasses, tensor.NewRNG(1))
	s, err := New(Options{Model: model, Graph: d.Graph, Features: d.Features, CacheCapacity: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	if s.ctx.Engine.Strategy != engine.StrategyHA {
		tb.Fatalf("a nil Options.Engine selected %v, documented as HA", s.ctx.Engine.Strategy)
	}
	return s, d
}

// uniformQueries draws count queries of per uniformly random vertices.
func uniformQueries(n, per, count int) [][]graph.VertexID {
	rng := tensor.NewRNG(7)
	qs := make([][]graph.VertexID, count)
	for i := range qs {
		qs[i] = make([]graph.VertexID, per)
		for j := range qs[i] {
			qs[i][j] = graph.VertexID(rng.Intn(n))
		}
	}
	return qs
}

// BenchmarkServeBatch times one micro-batch, plan + execute + replies, with
// the scheduler out of the way: cold4 is a lone 4-vertex query, full64 a
// full default batch of sixteen of them.
func BenchmarkServeBatch(b *testing.B) {
	for _, c := range []struct {
		name     string
		requests int
	}{{"cold4", 1}, {"full64", 16}} {
		b.Run(c.name, func(b *testing.B) {
			s, d := coldServer(b, 0.25)
			qs := uniformQueries(d.Graph.NumVertices(), 4, 4096)
			run := func(i int) {
				batch := make([]*request, c.requests)
				for j := range batch {
					batch[j] = &request{ctx: context.Background(), vertices: qs[(i*c.requests+j)%len(qs)], done: make(chan struct{})}
				}
				s.execMu.Lock()
				s.runBatch(batch)
				s.execMu.Unlock()
				if err := batch[0].err; err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 64; i++ { // grow the scratch and fill the pool
				run(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(i)
			}
		})
	}
}
