package store

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until the process goroutine count drops back to the
// baseline (with a small slack for runtime-internal helpers). Goroutine
// exits lag the Close call that triggers them, so a one-shot comparison
// would be flaky by construction.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPrefetchCancelReleasesWorkers checks that cancelling a prefetching
// epoch mid-stream tears down the sampler workers and the prefetch queue
// goroutines, not just unblocks Next.
func TestPrefetchCancelReleasesWorkers(t *testing.T) {
	d, l := testLocal(t, 32)
	base := runtime.NumGoroutine()

	slow := &slowStores{Local: l, delay: 10 * time.Millisecond}
	s := NewSampler(l, slow, SamplerOptions{Layers: 1, Seed: 7, Depth: 2, Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	st := s.Epoch(ctx, 0, batchesOf(d, 256, 8))
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	st.Close()
	waitGoroutines(t, base)
}
