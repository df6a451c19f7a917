package serve

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestSteadyStateQueryAllocatesOReply is the serving twin of
// models.TestSteadyStateEpochAllocatesOParams: with the cache off (every
// query pays its whole plan and forward pass) a warmed-up server answers
// from its own scratch and the buffer pool. What a query still allocates is
// its reply, the request's bookkeeping and a fixed number of small headers
// per layer — no activation storage, and nothing that grows with the graph:
// the same budgets hold at four times the vertices.
func TestSteadyStateQueryAllocatesOReply(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	// One P and no collection while counting, for the reasons given in the
	// models test: sync.Pool's per-P slots and its emptying by the collector.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, scale := range []float64{0.25, 1} {
		s, d := coldServer(t, scale)
		n := d.Graph.NumVertices()
		for _, c := range []struct {
			name                 string
			per                  int
			maxObjects, maxBytes uint64
		}{
			{"cold 4-vertex query", 4, 200, 32 << 10},
			{"64-vertex batch", 64, 260, 64 << 10},
		} {
			qs := uniformQueries(n, c.per, 64)
			query := func(i int) {
				if _, err := s.Query(context.Background(), qs[i%len(qs)]); err != nil {
					t.Fatal(err)
				}
			}
			for i := range qs { // grow the scratch and fill the pool
				query(i)
			}
			const runs = 64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				query(i)
			}
			runtime.ReadMemStats(&after)
			objects := (after.Mallocs - before.Mallocs) / runs
			bytes := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("twitter x%v, %d vertices: %s allocates %d objects, %d bytes", scale, n, c.name, objects, bytes)
			if objects > c.maxObjects || bytes > c.maxBytes {
				t.Errorf("twitter x%v: %s allocates %d objects / %d bytes, budget %d / %d",
					scale, c.name, objects, bytes, c.maxObjects, c.maxBytes)
			}
		}
	}
}
