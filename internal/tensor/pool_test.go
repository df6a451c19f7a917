package tensor

import (
	"sync"
	"sync/atomic"
	"testing"
)

// withParallelism runs f under the given kernel parallelism and restores
// the default afterwards.
func withParallelism(par int, f func()) {
	SetParallelism(par)
	defer SetParallelism(0)
	f()
}

func checkExactCover(t *testing.T, n int, hits []int32, label string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if hits[i] != 1 {
			t.Fatalf("%s: index %d visited %d times", label, i, hits[i])
		}
	}
}

func TestParallelForGrainCoversExactlyOnce(t *testing.T) {
	withParallelism(8, func() {
		for _, tc := range []struct{ n, grain int }{
			{1, 0}, {63, 0}, {64, 0}, {65, 0}, {1000, 0},
			{1000, 1}, {1000, 7}, {1000, 1000}, {1000, 5000},
			{17, 3}, {100000, 0},
		} {
			hits := make([]int32, tc.n)
			ParallelForGrain(tc.n, tc.grain, func(s, e int) {
				if s < 0 || e > tc.n || s >= e {
					t.Errorf("bad chunk [%d,%d) for n=%d", s, e, tc.n)
					return
				}
				for i := s; i < e; i++ {
					hits[i]++ // chunks are disjoint; -race verifies
				}
			})
			checkExactCover(t, tc.n, hits, "grain")
		}
	})
}

func TestParallelForWeightedCoversExactlyOnce(t *testing.T) {
	withParallelism(8, func() {
		// Power-law-ish weights: one hub with most of the edges, a few
		// mid rows, a long tail of zeros.
		n := 4000
		prefix := make([]int64, n+1)
		for i := 0; i < n; i++ {
			w := int64(0)
			switch {
			case i == 17:
				w = 1 << 20
			case i%97 == 0:
				w = 512
			case i%7 == 0:
				w = 3
			}
			prefix[i+1] = prefix[i] + w
		}
		hits := make([]int32, n)
		ParallelForWeighted(n, prefix, 16, func(s, e int) {
			for i := s; i < e; i++ {
				hits[i]++
			}
		})
		checkExactCover(t, n, hits, "weighted")

		// All-zero weights must still cover every index once.
		zero := make([]int64, n+1)
		hits = make([]int32, n)
		ParallelForWeighted(n, zero, 1<<20, func(s, e int) {
			for i := s; i < e; i++ {
				hits[i]++
			}
		})
		checkExactCover(t, n, hits, "zero-weight")
	})
}

// A prefix array with a nonzero base (a sub-range of a larger CSR pointer)
// must weigh items relative to prefix[0].
func TestParallelForWeightedNonzeroBase(t *testing.T) {
	withParallelism(8, func() {
		n := 300
		prefix := make([]int64, n+1)
		prefix[0] = 1 << 40
		for i := 0; i < n; i++ {
			prefix[i+1] = prefix[i] + int64(i%13)
		}
		hits := make([]int32, n)
		ParallelForWeighted(n, prefix, 64, func(s, e int) {
			for i := s; i < e; i++ {
				hits[i]++
			}
		})
		checkExactCover(t, n, hits, "nonzero-base")
	})
}

// Nested ParallelFor must not deadlock: with an unbuffered dispatch channel,
// inner calls fall back to inline execution when every worker is busy.
func TestNestedParallelForNoDeadlock(t *testing.T) {
	withParallelism(8, func() {
		var total atomic.Int64
		outer, inner := 512, 3000
		ParallelForGrain(outer, 1, func(s, e int) {
			for i := s; i < e; i++ {
				ParallelForGrain(inner, 1, func(is, ie int) {
					total.Add(int64(ie - is))
				})
			}
		})
		if got := total.Load(); got != int64(outer)*int64(inner) {
			t.Fatalf("nested cover = %d, want %d", got, int64(outer)*int64(inner))
		}
	})
}

// Calls from several goroutines at once each wait for exactly their own
// chunks, though their WaitGroups come from one pool: a call that returned
// early would find part of its range unvisited.
func TestConcurrentParallelForWaitsForOwnChunks(t *testing.T) {
	withParallelism(4, func() {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				const n = 4096
				for round := 0; round < 200; round++ {
					hits := make([]int32, n)
					ParallelForGrain(n, 64, func(s, e int) {
						for i := s; i < e; i++ {
							hits[i]++
						}
					})
					for i, h := range hits {
						if h != 1 {
							t.Errorf("round %d: index %d visited %d times", round, i, h)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	})
}

func TestGrainForCost(t *testing.T) {
	if g := GrainForCost(0); g != DefaultGrain {
		t.Fatalf("GrainForCost(0) = %d, want default %d", g, DefaultGrain)
	}
	if g := GrainForCost(1); g != minParallelCost {
		t.Fatalf("GrainForCost(1) = %d, want %d", g, minParallelCost)
	}
	if g := GrainForCost(minParallelCost * 2); g != 1 {
		t.Fatalf("huge item cost should give grain 1, got %d", g)
	}
}

func TestGetBufZeroedAfterDirtyPut(t *testing.T) {
	SetBufferPooling(true)
	defer SetBufferPooling(true)
	// Use an odd size so the class round-up path is exercised.
	b := GetBuf(1000)
	if len(b) != 1000 {
		t.Fatalf("len = %d", len(b))
	}
	for i := range b {
		if b[i] != 0 {
			t.Fatalf("fresh buffer not zeroed at %d", i)
		}
		b[i] = 42
	}
	PutBuf(b)
	// The recycled buffer must come back zeroed from GetBuf...
	c := GetBuf(900)
	for i := range c {
		if c[i] != 0 {
			t.Fatalf("recycled buffer not zeroed at %d", i)
		}
	}
	PutBuf(c)
	// ...and GetBufUninit makes no such promise but must have the right size.
	d := GetBufUninit(1024)
	if len(d) != 1024 {
		t.Fatalf("uninit len = %d", len(d))
	}
	PutBuf(d)
}

func TestBufferPoolingOff(t *testing.T) {
	SetBufferPooling(false)
	defer SetBufferPooling(true)
	b := GetBuf(100)
	b[0] = 7
	PutBuf(b) // must be a no-op
	c := GetBufUninit(100)
	if len(c) != 100 {
		t.Fatalf("len = %d", len(c))
	}
	if c[0] != 0 {
		t.Fatal("PutBuf recycled a buffer with pooling off")
	}
}

func TestRecyclePoisonsTensor(t *testing.T) {
	x := NewPooled(4, 4)
	Recycle(x)
	if x.data != nil {
		t.Fatal("recycled tensor must be poisoned")
	}
	Recycle(x)   // double recycle is a no-op
	Recycle(nil) // nil is a no-op
}

func TestSetParallelism(t *testing.T) {
	SetParallelism(3)
	if Parallelism() != 3 {
		t.Fatalf("Parallelism = %d", Parallelism())
	}
	SetParallelism(0) // restore GOMAXPROCS default
	if Parallelism() < 1 {
		t.Fatal("default parallelism must be >= 1")
	}
}
