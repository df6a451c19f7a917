package hdg

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// magnnRecords reproduces the paper's Fig. 3c HDG(A): root A with metapath
// instances p1 = (A,D,C) of type MP1 and p2..p5 of type MP2.
func magnnRecords() (*SchemaTree, []graph.VertexID, []Record) {
	schema := NewSchemaTree("MP1", "MP2")
	const A, B, C, D, E, F, G, H, I = 0, 1, 2, 3, 4, 5, 6, 7, 8
	roots := []graph.VertexID{A}
	recs := []Record{
		{Root: A, Nei: []graph.VertexID{A, D, C}, Type: 0}, // p1
		{Root: A, Nei: []graph.VertexID{A, E, B}, Type: 1}, // p2
		{Root: A, Nei: []graph.VertexID{A, F, G}, Type: 1}, // p3
		{Root: A, Nei: []graph.VertexID{A, H, G}, Type: 1}, // p4
		{Root: A, Nei: []graph.VertexID{A, H, I}, Type: 1}, // p5
	}
	_ = []int{B, I}
	return schema, roots, recs
}

func TestBuildMAGNNExample(t *testing.T) {
	schema, roots, recs := magnnRecords()
	h, err := Build(schema, roots, recs)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumRoots() != 1 || h.NumTypes() != 2 || h.NumInstances() != 5 {
		t.Fatalf("roots=%d types=%d instances=%d", h.NumRoots(), h.NumTypes(), h.NumInstances())
	}
	if h.IsFlat() {
		t.Fatal("MAGNN HDG must not be flat")
	}
	// Paper: A has 1 instance of MP1 and 4 of MP2.
	if lo, hi := h.Instances(0, 0); hi-lo != 1 {
		t.Fatalf("MP1 instances = %d", hi-lo)
	}
	if lo, hi := h.Instances(0, 1); hi-lo != 4 {
		t.Fatalf("MP2 instances = %d", hi-lo)
	}
	// Instance 0 is p1 with leaves (A, D, C).
	leaves := h.Leaves(0)
	want := []graph.VertexID{0, 3, 2}
	for i := range want {
		if leaves[i] != want[i] {
			t.Fatalf("p1 leaves = %v", leaves)
		}
	}
}

func TestBuildFlat(t *testing.T) {
	schema := NewSchemaTree("vertex")
	roots := []graph.VertexID{10, 20}
	recs := []Record{
		{Root: 20, Nei: []graph.VertexID{1}, Type: 0},
		{Root: 10, Nei: []graph.VertexID{2}, Type: 0},
		{Root: 10, Nei: []graph.VertexID{3}, Type: 0},
	}
	h, err := Build(schema, roots, recs)
	if err != nil {
		t.Fatal(err)
	}
	if !h.IsFlat() {
		t.Fatal("single-vertex neighbors must produce a flat HDG")
	}
	if h.LeafOffset != nil {
		t.Fatal("flat HDG must omit LeafOffset")
	}
	// Root 10 (rank 0) has instances {2,3}; root 20 (rank 1) has {1}.
	if lo, hi := h.Instances(0, 0); hi-lo != 2 {
		t.Fatalf("root 10 instances = %d", hi-lo)
	}
	got := map[graph.VertexID]bool{}
	lo, hi := h.Instances(0, 0)
	for i := lo; i < hi; i++ {
		got[h.Leaves(int(i))[0]] = true
	}
	if !got[2] || !got[3] {
		t.Fatalf("root 10 leaves = %v", got)
	}
}

func TestBuildRejectsBadRecords(t *testing.T) {
	schema := NewSchemaTree("vertex")
	if _, err := Build(schema, []graph.VertexID{1}, []Record{{Root: 2, Nei: []graph.VertexID{0}, Type: 0}}); err == nil {
		t.Fatal("unknown root must error")
	}
	if _, err := Build(schema, []graph.VertexID{1}, []Record{{Root: 1, Nei: []graph.VertexID{0}, Type: 5}}); err == nil {
		t.Fatal("bad type must error")
	}
	if _, err := Build(schema, []graph.VertexID{1}, []Record{{Root: 1, Type: 0}}); err == nil {
		t.Fatal("empty leaves must error")
	}
	if _, err := Build(schema, []graph.VertexID{1, 1}, nil); err == nil {
		t.Fatal("duplicate roots must error")
	}
}

func TestInstanceSlotsMatchOffsets(t *testing.T) {
	schema, roots, recs := magnnRecords()
	h, _ := Build(schema, roots, recs)
	slots := h.InstanceSlots()
	if len(slots) != 5 {
		t.Fatalf("len(slots) = %d", len(slots))
	}
	// Instance 0 -> slot 0 (root 0, MP1); instances 1..4 -> slot 1.
	if slots[0] != 0 {
		t.Fatalf("slots[0] = %d", slots[0])
	}
	for i := 1; i < 5; i++ {
		if slots[i] != 1 {
			t.Fatalf("slots[%d] = %d", i, slots[i])
		}
	}
}

func TestLeafVertexSet(t *testing.T) {
	schema, roots, recs := magnnRecords()
	h, _ := Build(schema, roots, recs)
	set := h.LeafVertexSet()
	// Leaves: A,B,C,D,E,F,G,H,I appear across p1..p5 = {0,1,2,3,4,5,6,7,8}.
	if len(set) != 9 {
		t.Fatalf("LeafVertexSet = %v", set)
	}
	for i := 1; i < len(set); i++ {
		if set[i-1] >= set[i] {
			t.Fatal("LeafVertexSet must be sorted and deduplicated")
		}
	}
}

func TestCompactBeatsNaive(t *testing.T) {
	schema, roots, recs := magnnRecords()
	h, _ := Build(schema, roots, recs)
	if h.NumBytes() >= h.NumBytesNaive() {
		t.Fatalf("compact %d >= naive %d", h.NumBytes(), h.NumBytesNaive())
	}
}

func TestSchemaTree(t *testing.T) {
	s := NewSchemaTree("MP1", "MP2")
	if s.IsFlat() || s.NumTypes() != 2 {
		t.Fatal("2-type schema must not be flat")
	}
	if !NewSchemaTree("vertex").IsFlat() {
		t.Fatal("1-type schema must be flat")
	}
}

// Property: for random record sets, every record is recoverable from the
// built HDG under the (root, type) grouping, and InstanceSlots agrees with
// that grouping.
func TestBuildRoundTripQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		numRoots := 1 + rng.Intn(6)
		T := 1 + rng.Intn(3)
		types := make([]string, T)
		for i := range types {
			types[i] = string(rune('a' + i))
		}
		schema := NewSchemaTree(types...)
		roots := make([]graph.VertexID, numRoots)
		for i := range roots {
			roots[i] = graph.VertexID(i * 10)
		}
		var recs []Record
		wantCount := make(map[[2]int]int)
		for i := 0; i < rng.Intn(20); i++ {
			r := rng.Intn(numRoots)
			ty := rng.Intn(T)
			nLeaves := 1 + rng.Intn(4)
			nei := make([]graph.VertexID, nLeaves)
			for j := range nei {
				nei[j] = graph.VertexID(rng.Intn(100))
			}
			recs = append(recs, Record{Root: roots[r], Nei: nei, Type: ty})
			wantCount[[2]int{r, ty}]++
		}
		h, err := Build(schema, roots, recs)
		if err != nil {
			return false
		}
		if h.NumInstances() != len(recs) {
			return false
		}
		slots := h.InstanceSlots()
		for r := 0; r < numRoots; r++ {
			for ty := 0; ty < T; ty++ {
				lo, hi := h.Instances(r, ty)
				if int(hi-lo) != wantCount[[2]int{r, ty}] {
					return false
				}
				for i := lo; i < hi; i++ {
					if int(slots[i]) != r*T+ty {
						return false
					}
				}
			}
		}
		return len(slots) == len(recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyHDG(t *testing.T) {
	schema := NewSchemaTree("vertex")
	h, err := Build(schema, []graph.VertexID{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumInstances() != 0 {
		t.Fatalf("instances = %d", h.NumInstances())
	}
	if lo, hi := h.Instances(0, 0); lo != hi {
		t.Fatal("empty root must have empty instance range")
	}
	if len(h.InstanceSlots()) != 0 || len(h.LeafVertexSet()) != 0 {
		t.Fatal("empty HDG must have no slots or leaves")
	}
	if h.NumBytes() <= 0 {
		t.Fatal("even empty HDGs carry offset arrays")
	}
}

func TestRootRankLookup(t *testing.T) {
	schema := NewSchemaTree("vertex")
	h, err := Build(schema, []graph.VertexID{5, 9}, []Record{{Root: 9, Nei: []graph.VertexID{5}, Type: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := h.RootRank(9); !ok || r != 1 {
		t.Fatalf("RootRank(9) = %d, %v", r, ok)
	}
	if _, ok := h.RootRank(7); ok {
		t.Fatal("unknown root must not be found")
	}
}

// leafVertexSetByMap is LeafVertexSet as it was before the sort-and-compact
// rewrite, kept as the reference the new one must match.
func leafVertexSetByMap(h *HDG) []graph.VertexID {
	seen := make(map[graph.VertexID]struct{})
	for _, v := range h.LeafIDs {
		seen[v] = struct{}{}
	}
	out := make([]graph.VertexID, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// randomRecords returns roots (ascending or shuffled) and records grouped
// root-major in roots order with types ascending — the order the selection
// driver emits. Some roots get no record; multiLeaf mixes in instances of
// two to four leaves, the first of them late.
func randomRecords(rng *tensor.RNG, numRoots, T int, shuffle, multiLeaf bool) ([]graph.VertexID, []Record) {
	roots := make([]graph.VertexID, numRoots)
	for i := range roots {
		roots[i] = graph.VertexID(3 * i)
	}
	if shuffle {
		for i, j := range rng.Perm(numRoots) {
			roots[i], roots[j] = roots[j], roots[i]
		}
	}
	var recs []Record
	for _, r := range roots {
		if rng.Intn(4) == 0 {
			continue
		}
		for ty := 0; ty < T; ty++ {
			for k := rng.Intn(4); k > 0; k-- {
				n := 1
				if multiLeaf && len(recs) > numRoots && rng.Intn(3) == 0 {
					n = 2 + rng.Intn(3)
				}
				nei := make([]graph.VertexID, n)
				for j := range nei {
					nei[j] = graph.VertexID(rng.Intn(50))
				}
				recs = append(recs, Record{Root: r, Nei: nei, Type: ty})
			}
		}
	}
	return roots, recs
}

func TestLeafVertexSetMatchesMapImplementation(t *testing.T) {
	rng := tensor.NewRNG(11)
	schema := NewSchemaTree("a", "b")
	for trial := 0; trial < 50; trial++ {
		numRoots := rng.Intn(30) // 0 roots: the empty HDG
		roots, recs := randomRecords(rng, numRoots, 2, trial%2 == 0, trial%3 == 0)
		h, err := Build(schema, roots, recs)
		if err != nil {
			t.Fatal(err)
		}
		got, want := h.LeafVertexSet(), leafVertexSetByMap(h)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: LeafVertexSet = %v, map implementation %v", trial, got, want)
		}
	}
}

// TestBuildInOrderAgreesWithFallback feeds Build the same records grouped
// (single-pass path) and with the root blocks reversed (counting-sort
// path). Reversing whole blocks keeps the arrival order inside every
// (root, type) slot, so both must produce identical storage.
func TestBuildInOrderAgreesWithFallback(t *testing.T) {
	rng := tensor.NewRNG(12)
	schema := NewSchemaTree("a", "b", "c")
	for trial := 0; trial < 60; trial++ {
		roots, recs := randomRecords(rng, 1+rng.Intn(40), 3, trial%2 == 0, trial%3 != 0)
		var blocks [][]Record
		for i := 0; i < len(recs); {
			j := i
			for j < len(recs) && recs[j].Root == recs[i].Root {
				j++
			}
			blocks = append(blocks, recs[i:j])
			i = j
		}
		var reversed []Record
		for i := len(blocks) - 1; i >= 0; i-- {
			reversed = append(reversed, blocks[i]...)
		}
		fast, err := Build(schema, roots, recs)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := Build(schema, roots, reversed)
		if err != nil {
			t.Fatal(err)
		}
		if fast.IsFlat() != slow.IsFlat() || !slices.Equal(fast.InstOffset, slow.InstOffset) ||
			!slices.Equal(fast.LeafOffset, slow.LeafOffset) || !slices.Equal(fast.LeafIDs, slow.LeafIDs) {
			t.Fatalf("trial %d: in-order and counting-sort paths disagree", trial)
		}
		for rank, r := range roots {
			if got, ok := fast.RootRank(r); !ok || int(got) != rank {
				t.Fatalf("trial %d: RootRank(%d) = %d, %v; want %d", trial, r, got, ok, rank)
			}
		}
		if _, ok := fast.RootRank(1); ok {
			t.Fatal("vertex 1 is never a root")
		}
	}
}
