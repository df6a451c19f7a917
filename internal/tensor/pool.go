package tensor

// This file implements the kernel scheduling layer: a persistent worker pool
// behind the ParallelFor family of helpers. The seed implementation spawned
// fresh goroutines on every call and split ranges by item count; hot GNN
// kernels call ParallelFor thousands of times per epoch, and on skewed
// graphs an even vertex split serialises whole chunks behind hub vertices
// (the chunk-granularity scheduling observation of NGra). Here:
//
//   - workers are spawned once and parked on an unbuffered channel between
//     calls, so dispatch is a channel rendezvous instead of a goroutine
//     spawn;
//   - ParallelForGrain takes a grain-size (minimum items per chunk) so
//     cheap-per-item loops are not over-chunked and tiny loops run inline;
//   - ParallelForWeighted splits by cumulative cost from a prefix-sum array
//     (e.g. a CSR row pointer), so one high-degree vertex cannot serialise a
//     whole chunk — the edge-balanced split the fused aggregation kernels
//     use.
//
// The dispatch channel is deliberately unbuffered: a send succeeds only when
// a worker is parked on the receive, and otherwise the submitting goroutine
// runs the chunk inline. Nested ParallelFor calls therefore degrade to
// inline execution instead of deadlocking on a full queue.

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// minParallelCost is the approximate amount of work, in single-element
// operations, below which handing a chunk to another worker costs more than
// it saves.
const minParallelCost = 1 << 14

// DefaultGrain preserves the historical "n < 64 runs inline" threshold for
// callers that provide no cost hint. Exported for fan-outs that size their
// own worker count (nau's selection driver) but want the same threshold.
const DefaultGrain = 64

var (
	// parallelism is the target number of concurrent workers.
	parallelism atomic.Int32

	poolMu      sync.Mutex
	poolSpawned atomic.Int32
	taskCh      chan poolTask
)

func init() { parallelism.Store(int32(runtime.GOMAXPROCS(0))) }

// Parallelism returns the target parallelism of tensor kernels.
func Parallelism() int { return int(parallelism.Load()) }

// SetParallelism overrides how many workers tensor kernels may use; n <= 0
// resets to runtime.GOMAXPROCS(0). Raising it above the machine's core count
// is allowed (useful for exercising the concurrent paths under -race on
// small machines).
func SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	parallelism.Store(int32(n))
}

type poolTask struct {
	body       func(start, end int)
	start, end int
	done       *sync.WaitGroup
}

// ensureWorkers guarantees at least n parked pool workers exist.
func ensureWorkers(n int) {
	if int(poolSpawned.Load()) >= n {
		return
	}
	poolMu.Lock()
	if taskCh == nil {
		taskCh = make(chan poolTask) // unbuffered by design, see file comment
	}
	for int(poolSpawned.Load()) < n {
		go poolWorker(taskCh)
		poolSpawned.Add(1)
	}
	poolMu.Unlock()
}

func poolWorker(ch chan poolTask) {
	for t := range ch { // never closed: workers park here between kernels
		t.body(t.start, t.end)
		t.done.Done()
	}
}

// waitGroups recycles dispatch's WaitGroups, one of which would otherwise
// escape to the heap with every parallel call. A WaitGroup may be reused once
// Wait has returned.
var waitGroups = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// dispatch fans chunks w = 0..workers-1 (bounds gives each chunk's [start,
// end)) out to the pool, running chunk 0 on the calling goroutine. workers
// must be >= 2.
func dispatch(workers int, bounds func(w int) (start, end int), body func(start, end int)) {
	wg := waitGroups.Get().(*sync.WaitGroup)
	ensureWorkers(workers - 1)
	for w := 1; w < workers; w++ {
		s, e := bounds(w)
		if s >= e {
			continue
		}
		wg.Add(1)
		select {
		case taskCh <- poolTask{body, s, e, wg}:
		default:
			// No parked worker: run the chunk here rather than queue it.
			body(s, e)
			wg.Done()
		}
	}
	if s, e := bounds(0); s < e {
		body(s, e)
	}
	wg.Wait()
	waitGroups.Put(wg) // not deferred: after a panic the group may still count
}

// ParallelFor splits [0, n) into roughly equal chunks and runs body on each
// chunk concurrently. body receives [start, end). Small n runs inline.
func ParallelFor(n int, body func(start, end int)) {
	ParallelForGrain(n, 0, body)
}

// ParallelForGrain is ParallelFor with an explicit grain size: no chunk is
// smaller than grain items, and n <= grain runs inline. Use GrainForCost to
// derive a grain from a per-item cost estimate. grain <= 0 selects the
// default (64, the historical inline threshold).
func ParallelForGrain(n, grain int, body func(start, end int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	workers := Parallelism()
	if mc := (n + grain - 1) / grain; workers > mc {
		workers = mc
	}
	if workers <= 1 {
		body(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	dispatch(workers, func(w int) (int, int) {
		s := w * chunk
		e := s + chunk
		if s > n {
			s = n
		}
		if e > n {
			e = n
		}
		return s, e
	}, body)
}

// GrainForCost returns a grain size for ParallelForGrain such that each
// chunk carries at least minParallelCost single-element operations, given
// the cost of one loop item (e.g. the feature width for row-wise kernels).
func GrainForCost(itemCost int) int {
	if itemCost <= 0 {
		return DefaultGrain
	}
	g := minParallelCost / itemCost
	if g < 1 {
		g = 1
	}
	return g
}

// ParallelForWeighted splits [0, n) so that every chunk carries roughly the
// same cumulative weight, where item i weighs prefix[i+1]-prefix[i] (plus an
// implicit 1, so zero-weight items still spread) and each weight unit costs
// itemCost single-element operations. prefix must be nondecreasing with
// len(prefix) >= n+1 — typically a CSR destination pointer, making this the
// edge-balanced split: a hub vertex lands alone in a chunk instead of
// serialising its neighbours' chunk — or an HDG's InstOffset, which is why
// the prefix may be int32.
func ParallelForWeighted[P int32 | int64](n int, prefix []P, itemCost int, body func(start, end int)) {
	if n <= 0 {
		return
	}
	if itemCost < 1 {
		itemCost = 1
	}
	base := prefix[0]
	costAt := func(i int) int64 { return int64(prefix[i]-base) + int64(i) }
	totalCost := costAt(n)
	workers := int64(Parallelism())
	if mc := totalCost * int64(itemCost) / minParallelCost; workers > mc {
		workers = mc
	}
	if workers > int64(n) {
		workers = int64(n)
	}
	if workers <= 1 {
		body(0, n)
		return
	}
	bound := func(w int) int {
		if w <= 0 {
			return 0
		}
		if w >= int(workers) {
			return n
		}
		target := totalCost * int64(w) / workers
		return sort.Search(n, func(i int) bool { return costAt(i) >= target })
	}
	dispatch(int(workers), func(w int) (int, int) {
		return bound(w), bound(w + 1)
	}, body)
}
