package main

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// fakeQuerier answers after a known service time. serial makes it a
// one-at-a-time server, so queueing delay is visible; gate, when non-nil,
// holds every request until it is closed.
type fakeQuerier struct {
	service time.Duration
	serial  bool
	gate    chan struct{}
	fail    func(v graph.VertexID) bool

	mu    sync.Mutex // held while serving when serial
	calls atomic.Int64
}

func (f *fakeQuerier) Query(_ context.Context, vs []graph.VertexID) (*serve.Reply, error) {
	if f.gate != nil {
		<-f.gate
	}
	if f.serial {
		f.mu.Lock()
		defer f.mu.Unlock()
	}
	time.Sleep(f.service)
	f.calls.Add(1)
	if f.fail != nil && f.fail(vs[0]) {
		return nil, errors.New("fake failure")
	}
	return &serve.Reply{ModelVersion: 1, Results: []serve.Result{{Vertex: vs[0]}}}, nil
}
func (f *fakeQuerier) ModelVersion() int64 { return 1 }
func (f *fakeQuerier) Close()              {}

func testQueries(n int) [][]graph.VertexID {
	qs := make([][]graph.VertexID, n)
	for i := range qs {
		qs[i] = []graph.VertexID{graph.VertexID(i)}
	}
	return qs
}

func TestArrivalsFollowRateAndSeed(t *testing.T) {
	a := arrivals(tensor.NewRNG(3), 1000, time.Second)
	b := arrivals(tensor.NewRNG(3), 1000, time.Second)
	if len(a) < 850 || len(a) > 1150 {
		t.Fatalf("1000 qps for 1 s gave %d arrivals", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] < a[i-1]) || a[i] >= time.Second {
			t.Fatalf("arrival %d: %v vs %v, previous %v", i, a[i], b[i], a[max(i-1, 0)])
		}
	}
}

func TestOpenLoopKnownServiceTime(t *testing.T) {
	const service = 2 * time.Millisecond
	q := &fakeQuerier{service: service}
	due := arrivals(tensor.NewRNG(1), 500, 400*time.Millisecond)
	res := openLoop(context.Background(), q, testQueries(64), due, nil)
	if len(res.latMS) != len(due) || int(q.calls.Load()) != len(due) {
		t.Fatalf("%d arrivals, %d latencies, %d calls", len(due), len(res.latMS), q.calls.Load())
	}
	if res.failed != 0 || res.overCap != 0 {
		t.Fatalf("failed %d, over cap %d on a healthy server", res.failed, res.overCap)
	}
	for i, l := range res.latMS {
		if l < 2 {
			t.Fatalf("request %d took %.3f ms, below the %v service time", i, l, service)
		}
	}
	if p50 := median(res.latMS); p50 > 12 {
		t.Errorf("p50 %.3f ms against an unloaded 2 ms server", p50)
	}
	if res.lateMaxMS < 0 || res.wall < 0.3 {
		t.Errorf("late max %.3f ms, wall %.3f s", res.lateMaxMS, res.wall)
	}
}

// A serial 5 ms server given 20 requests that are all due at once: measured
// from the due time, the i-th waits for the i before it. Measured from the
// send time every one would read ~5 ms.
func TestOpenLoopTimesFromDueInstant(t *testing.T) {
	q := &fakeQuerier{service: 5 * time.Millisecond, serial: true}
	due := make([]time.Duration, 20)
	res := openLoop(context.Background(), q, testQueries(20), due, nil)
	if worst := quantile(res.latMS, 1); worst < 90 {
		t.Fatalf("slowest of 20 queued requests took %.1f ms; queueing delay is not charged", worst)
	}
	if fastest := quantile(res.latMS, 0); fastest < 5 {
		t.Fatalf("fastest request took %.3f ms, below the service time", fastest)
	}
}

func TestOpenLoopCapsInflightAndCountsFailures(t *testing.T) {
	gate := make(chan struct{})
	q := &fakeQuerier{gate: gate}
	due := make([]time.Duration, maxInflight+100)
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(gate)
	}()
	res := openLoop(context.Background(), q, testQueries(8), due, nil)
	if res.overCap != 100 || res.failed != 100 {
		t.Fatalf("over cap %d, failed %d, want 100 each", res.overCap, res.failed)
	}
	inf := 0
	for _, l := range res.latMS {
		if math.IsInf(l, 1) {
			inf++
		}
	}
	if inf != 100 {
		t.Fatalf("%d infinite latencies, want 100", inf)
	}

	// Errors and wrong replies count as +Inf too.
	q = &fakeQuerier{fail: func(v graph.VertexID) bool { return v%4 == 0 }}
	res = openLoop(context.Background(), q, testQueries(40), make([]time.Duration, 40),
		func(i int, r *serve.Reply) bool { return i%4 != 1 })
	if res.failed != 20 {
		t.Fatalf("failed %d of 40, want 10 errors + 10 wrong replies", res.failed)
	}
	if p99 := quantile(res.latMS, 0.99); !math.IsInf(p99, 1) {
		t.Fatalf("p99 %.3f with half the requests failed", p99)
	}
}

func TestClosedLoopCountsAndLimits(t *testing.T) {
	q := &fakeQuerier{service: time.Millisecond}
	res := closedLoop(context.Background(), q, testQueries(16), 0, 8, 0, 100)
	if res.done != 100 || res.failed != 0 || q.calls.Load() != 100 {
		t.Fatalf("limit 100: done %d failed %d calls %d", res.done, res.failed, q.calls.Load())
	}
	res = closedLoop(context.Background(), q, testQueries(16), 0, 8, 100*time.Millisecond, 0)
	// 8 callers of a 1 ms server for 100 ms: at most 800, and not a handful.
	if res.done < 100 || res.done > 900 {
		t.Fatalf("timed closed loop completed %d queries", res.done)
	}
}
