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
// or metapath kernel, UDF, hdg.Build — at the two shapes that re-run it:
// PinSage's random-walk top-k over a power-law graph (every epoch) and
// MAGNN's metapath instances over a heterogeneous one (once). Rows are
// recorded in BENCH_sampler.json and gated by `make bench-smoke`.
func BenchmarkNeighborSelection(b *testing.B) {
	twitter := dataset.TwitterLike(dataset.Config{Seed: 1})
	imdb := dataset.IMDBLike(dataset.Config{Seed: 1})
	cases := []struct {
		name   string
		d      *dataset.Dataset
		schema *hdg.SchemaTree
		udf    NeighborUDF
	}{
		{"pinsage", twitter, hdg.NewSchemaTree("vertex"), RandomWalkUDF(10, 3, 10)},
		{"metapath", imdb, hdg.NewSchemaTree("mp0", "mp1"), MetapathUDF(imdb.Metapaths[:2], 8)},
	}
	for _, c := range cases {
		roots := AllVertices(c.d.Graph)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers%d", c.name, workers), func(b *testing.B) {
				rng := tensor.NewRNG(1)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					h, err := NeighborSelectionSeeded(c.d.Graph, c.schema, c.udf, roots,
						splitSeeds(rng, len(roots)), workers)
					if err != nil {
						b.Fatal(err)
					}
					selectSink = h
				}
			})
		}
	}
}
