package metrics

import (
	"bytes"
	"strings"
	"testing"
)

// TestQuantileEdgeCases pins the histogram's behavior at the degenerate
// ends a merged cluster registry routinely hits: ranks that never observed
// anything, and ranks that observed exactly once.
func TestQuantileEdgeCases(t *testing.T) {
	r := NewRegistry()
	empty := r.Histogram("empty")
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty histogram Quantile(%v) = %v, want 0", q, got)
		}
	}

	single := r.Histogram("single")
	single.Observe(1000)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := single.Quantile(q)
		// One observation lands in the [512, 1024) bucket; every quantile
		// must interpolate inside that bucket, never to 0 or past it.
		if got < 512 || got > 1024 {
			t.Fatalf("single-observation Quantile(%v) = %v, want within its bucket [512, 1024]", q, got)
		}
	}
	if single.Count() != 1 || single.Sum() != 1000 {
		t.Fatalf("single: count=%d sum=%d", single.Count(), single.Sum())
	}
}

// TestMergeDisjointCounters checks the cluster-merge path when ranks
// register per-rank-named series: nothing collides, everything passes
// through, and shared names still add.
func TestMergeDisjointCounters(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("collective.ops.rank0").Add(3)
	a.Counter("shared.total").Add(10)
	b.Counter("collective.ops.rank1").Add(5)
	b.Counter("shared.total").Add(7)
	b.Gauge("epoch_loss.rank1").Set(0.25)

	a.MergeSnapshot(b.Snapshot())
	if got := a.Counter("collective.ops.rank0").Load(); got != 3 {
		t.Fatalf("rank0 counter = %d, want 3 (must survive merge untouched)", got)
	}
	if got := a.Counter("collective.ops.rank1").Load(); got != 5 {
		t.Fatalf("rank1 counter = %d, want 5 (disjoint series must pass through)", got)
	}
	if got := a.Counter("shared.total").Load(); got != 17 {
		t.Fatalf("shared counter = %d, want 17 (same-name counters add)", got)
	}
	if got := a.Gauge("epoch_loss.rank1").Load(); got != 0.25 {
		t.Fatalf("gauge = %v, want 0.25", got)
	}
	// Merge must not mutate the source.
	if got := b.Counter("shared.total").Load(); got != 7 {
		t.Fatalf("source registry mutated: shared.total = %d", got)
	}
}

// TestSnapshotRoundTrip checks the full-fidelity snapshot the telemetry
// plane ships over the wire: raw buckets (not derived quantiles) merge
// exactly, and repeated merges of fresh deltas equal one big registry.
func TestSnapshotRoundTrip(t *testing.T) {
	src := NewRegistry()
	h := src.Histogram("lat")
	for _, v := range []int64{10, 100, 1000, 10000} {
		h.Observe(v)
	}
	src.Counter("c").Add(4)
	src.Gauge("g").Set(2.5)

	dst := NewRegistry()
	dst.MergeSnapshot(src.Snapshot())
	dst.MergeSnapshot(src.Snapshot()) // cumulative snapshots double everything additive

	dh := dst.Histogram("lat")
	if dh.Count() != 8 || dh.Sum() != 2*11110 {
		t.Fatalf("merged histogram count=%d sum=%d, want 8 and %d", dh.Count(), dh.Sum(), 2*11110)
	}
	// Same bucket shape: quantiles of the doubled histogram match the
	// original (doubling every bucket preserves the distribution).
	if src.Histogram("lat").Quantile(0.5) != dh.Quantile(0.5) {
		t.Fatalf("p50 changed across merge: %v != %v", src.Histogram("lat").Quantile(0.5), dh.Quantile(0.5))
	}
	if dst.Counter("c").Load() != 8 {
		t.Fatalf("counter = %d, want 8", dst.Counter("c").Load())
	}
	if dst.Gauge("g").Load() != 2.5 {
		t.Fatalf("gauge = %v, want 2.5 (last-wins)", dst.Gauge("g").Load())
	}
}

// TestExemplarTracksMax checks the exemplar CAS: the retained (value, span)
// pair is the maximum observation, it survives snapshot/merge, and it shows
// up in the text dump so /metrics links the p99 outlier to its span.
func TestExemplarTracksMax(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req")
	h.ObserveExemplar(100, 0xAAA)
	h.ObserveExemplar(500, 0xBBB)
	h.ObserveExemplar(200, 0xCCC) // smaller: must not displace the max
	v, id := h.Exemplar()
	if v != 500 || id != 0xBBB {
		t.Fatalf("exemplar = (%d, %#x), want (500, 0xbbb)", v, id)
	}

	dst := NewRegistry()
	dst.MergeSnapshot(r.Snapshot())
	if v, id := dst.Histogram("req").Exemplar(); v != 500 || id != 0xBBB {
		t.Fatalf("exemplar lost in snapshot merge: (%d, %#x)", v, id)
	}

	var buf bytes.Buffer
	if err := dst.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ex=500@0xbbb") {
		t.Fatalf("text dump missing exemplar:\n%s", buf.String())
	}
}
