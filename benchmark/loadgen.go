package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// maxInflight caps the open loop's outstanding requests. A request that comes
// due while the cap is reached is not sent and counts as failed: a backlog
// that deep means the rate is past capacity, and an uncapped generator would
// only measure its own goroutine pile.
const maxInflight = 256

// closedCallers is the closed loop's client count: in-process callers
// (goroutines, not threads or connections), each waiting for its reply.
const closedCallers = 64

// arrivals pre-generates a Poisson schedule: due offsets of every request of
// an open loop at `rate` per second lasting dur. Nothing random happens while
// the clock runs.
func arrivals(rng *tensor.RNG, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// openResult is one open-loop phase. latMS has one entry per due request,
// +Inf for a request that failed, was shed, was over the in-flight cap or
// returned a wrong reply.
type openResult struct {
	latMS     []float64
	failed    int
	overCap   int
	lateMaxMS float64 // how late the generator itself ran, at worst
	wall      float64
}

// openLoop sends queries[i] at start+due[i] from one generating goroutine,
// regardless of how the system keeps up, and times each request from the
// instant it was due — so a stall is charged to every request it delays.
// check (may be nil) validates reply i; it runs on the request's goroutine.
func openLoop(ctx context.Context, q serve.Querier, queries [][]graph.VertexID, due []time.Duration,
	check func(i int, r *serve.Reply) bool) openResult {
	res := openResult{latMS: make([]float64, len(due))}
	var inflight, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range due {
		at := start.Add(off)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		if late := time.Since(at).Seconds() * 1000; late > res.lateMaxMS {
			res.lateMaxMS = late
		}
		if inflight.Load() >= maxInflight {
			res.latMS[i] = math.Inf(1)
			res.overCap++
			failed.Add(1)
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			defer inflight.Add(-1)
			reply, err := q.Query(ctx, queries[i%len(queries)])
			lat := time.Since(at).Seconds() * 1000
			if err != nil || (check != nil && !check(i, reply)) {
				lat = math.Inf(1)
				failed.Add(1)
			}
			res.latMS[i] = lat
		}(i, at)
	}
	wg.Wait()
	res.wall = time.Since(start).Seconds()
	res.failed = int(failed.Load())
	return res
}

// closedResult is one closed-loop phase.
type closedResult struct {
	done   int
	failed int
	wall   float64
}

// closedLoop runs `callers` goroutines that each send the next query of the
// list as soon as their previous one completes, until dur has passed or, when
// limit > 0, until limit queries were issued.
func closedLoop(ctx context.Context, q serve.Querier, queries [][]graph.VertexID, first, callers int,
	dur time.Duration, limit int) closedResult {
	var next, done, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if (limit > 0 && i >= limit) || (limit <= 0 && !time.Now().Before(deadline)) {
					return
				}
				if _, err := q.Query(ctx, queries[(first+i)%len(queries)]); err != nil {
					failed.Add(1)
				} else {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return closedResult{done: int(done.Load()), failed: int(failed.Load()), wall: time.Since(start).Seconds()}
}
