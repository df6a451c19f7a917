package nau

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hdg"
	"repro/internal/tensor"
)

var selectSink *hdg.HDG

// BenchmarkNeighborSelection times the whole selection path — driver, walk
// or metapath kernel, selector, the appending sink's stitch — at the two
// shapes that re-run it: PinSage's random-walk top-k over a power-law graph
// (every epoch) and MAGNN's metapath instances over a heterogeneous one
// (once). The arenas are kept across iterations, as the trainer keeps them;
// every iteration draws a fresh epoch seed and builds a fresh HDG. The
// pinsage-records row runs PinSage through the record sink instead — the
// UDF adapter on pooled arenas, SelectRecords and hdg.Build — as the store's
// Sample, the serve planner and NeighborSelection do. Rows are recorded in
// BENCH_sampler.json and gated by `make bench-smoke`.
func BenchmarkNeighborSelection(b *testing.B) {
	twitter := dataset.TwitterLike(dataset.Config{Seed: 1})
	imdb := dataset.IMDBLike(dataset.Config{Seed: 1})
	cases := []struct {
		name   string
		d      *dataset.Dataset
		schema *hdg.SchemaTree
		sel    Selector
	}{
		{"pinsage", twitter, hdg.NewSchemaTree("vertex"), RandomWalkSelector(10, 3, 10)},
		{"metapath", imdb, hdg.NewSchemaTree("mp0", "mp1"), MetapathSelector(imdb.Metapaths[:2], 8)},
	}
	for _, c := range cases {
		roots := AllVertices(c.d.Graph)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers%d", c.name, workers), func(b *testing.B) {
				rng := tensor.NewRNG(1)
				var arenas []*arena
				run := func() {
					h, err := selectHDG(c.d.Graph, c.schema, c.sel, roots, rng.Uint64(), workers, &arenas, nil)
					if err != nil {
						b.Fatal(err)
					}
					selectSink = h
				}
				run() // grows the arenas
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
			})
		}
	}
	b.Run("pinsage-records/workers2", func(b *testing.B) {
		roots, udf := AllVertices(twitter.Graph), cases[0].sel.UDF()
		rng := tensor.NewRNG(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h, err := neighborSelectionSeeded(twitter.Graph, cases[0].schema, udf, roots, rng.Uint64(), 2)
			if err != nil {
				b.Fatal(err)
			}
			selectSink = h
		}
	})
}
