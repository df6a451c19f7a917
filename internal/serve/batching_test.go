package serve

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// holdExecutor parks the server's executor behind a model update that does
// not return until release is called: requests queue, nothing runs.
func holdExecutor(t *testing.T, s *Server) (release func()) {
	t.Helper()
	held, hold, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		_ = s.UpdateModel(func() error { close(held); <-hold; return nil })
	}()
	<-held
	var once sync.Once
	release = func() { once.Do(func() { close(hold); <-done }) }
	t.Cleanup(release)
	return release
}

// waitFor polls cond — an event with no channel to wait on — until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// enqueue starts n single-shot queries of `per` distinct vertices each and
// returns once all of them sit behind the held executor: it has taken the
// first off the queue and is blocked on the update, the rest are in reqCh.
func enqueue(t *testing.T, s *Server, n, per int) (errs chan error, wg *sync.WaitGroup) {
	t.Helper()
	errs, wg = make(chan error, n), new(sync.WaitGroup)
	for i := 0; i < n; i++ {
		verts := make([]graph.VertexID, per)
		for j := range verts {
			verts[j] = graph.VertexID(i*per + j)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply, err := s.Query(context.Background(), verts)
			if err == nil && len(reply.Results) != per {
				err = errors.New("short reply")
			}
			errs <- err
		}()
	}
	waitFor(t, "the requests to queue", func() bool { return len(s.reqCh) == n-1 })
	return errs, wg
}

// TestBatchingContract pins how micro-batches form, without a clock:
// everything that queued behind a busy executor runs as one batch up to
// BatchSize query vertices, and as ceil(vertices/BatchSize) batches beyond
// it; a lone request on an idle server is a batch of one.
func TestBatchingContract(t *testing.T) {
	tr, d := trainedGCN(t, 0.05)
	for _, c := range []struct {
		name                string
		requests, per, size int
		wantBatches         int64
	}{
		{"lone request, idle server", 1, 3, 64, 1},
		{"queue fits one batch", 12, 2, 64, 1},
		{"queue fills a batch exactly", 16, 4, 64, 1},
		{"queue spills into three", 40, 1, 16, 3},
		{"requests are never split", 5, 3, 4, 3}, // 3+3 crosses the bound, then 3+3, then 3
	} {
		t.Run(c.name, func(t *testing.T) {
			s, reg := newServer(t, tr, d, Options{BatchSize: c.size, CacheCapacity: -1})
			release := func() {}
			if c.requests > 1 {
				release = holdExecutor(t, s)
			}
			errs, wg := enqueue(t, s, c.requests, c.per)
			release()
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if got := reg.Counter("serve_batches_total").Load(); got != c.wantBatches {
				t.Fatalf("%d requests x %d vertices at BatchSize %d ran as %d batches, want %d",
					c.requests, c.per, c.size, got, c.wantBatches)
			}
			sizes := reg.Histogram("serve_batch_vertices")
			if got, want := sizes.Sum(), int64(c.requests*c.per); got != want || sizes.Count() != c.wantBatches {
				t.Fatalf("batches held %d vertices over %d observations, want %d over %d",
					got, sizes.Count(), want, c.wantBatches)
			}
			if waits := reg.Histogram("serve_queue_wait_ns"); waits.Count() != int64(c.requests) {
				t.Fatalf("serve_queue_wait_ns saw %d requests, want %d", waits.Count(), c.requests)
			}
		})
	}
}

// TestNoTimerInRequestPath: the scheduler has no clock to wait on. A lone
// request is answered by the executor's own wake-up, and server.go holds
// nothing that could park it.
func TestNoTimerInRequestPath(t *testing.T) {
	src, err := os.ReadFile("server.go")
	if err != nil {
		t.Fatal(err)
	}
	if m := regexp.MustCompile(`time\.(Timer|NewTimer|After|AfterFunc|Tick|NewTicker|Sleep)\b`).Find(src); m != nil {
		t.Fatalf("server.go uses %s: the request path must not wait on a clock", m)
	}
}

// TestCloseFailsQueuedRequests: Close answers every request still queued —
// and the one the executor already holds but has not started — with
// ErrClosed, strands none, and leaves no goroutine behind.
func TestCloseFailsQueuedRequests(t *testing.T) {
	tr, d := trainedGCN(t, 0.03)
	base := runtime.NumGoroutine()
	s, reg := newServer(t, tr, d, Options{})
	release := holdExecutor(t, s)
	const n = 24
	errs, wg := enqueue(t, s, n, 2)

	closed := make(chan struct{})
	go func() { defer close(closed); s.Close() }()
	waitFor(t, "Close to bar admissions", func() bool {
		s.closeMu.RLock()
		defer s.closeMu.RUnlock()
		return s.closed
	})
	release()
	wg.Wait()
	<-closed
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("queued request: err = %v, want ErrClosed", err)
		}
	}
	if got := reg.Counter("serve_batches_total").Load(); got != 0 {
		t.Fatalf("%d batches ran after Close", got)
	}
	waitFor(t, "the executor and the callers to exit", func() bool { return runtime.NumGoroutine() <= base+2 })
}

// TestClosedServerFailsLiveness: the liveness probe — an empty Query, and
// /v1/healthz over it — fails once the server is closed, so a health checker
// cannot take a server that is shutting down for a live one.
func TestClosedServerFailsLiveness(t *testing.T) {
	tr, d := trainedGCN(t, 0.03)
	s, _ := newServer(t, tr, d, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, ClientOptions{})
	defer c.Close()
	if _, err := s.Query(context.Background(), nil); err != nil {
		t.Fatalf("open server, empty query: %v", err)
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("open server, healthz: %v", err)
	}
	s.Close()
	if _, err := s.Query(context.Background(), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed server, empty query: err = %v, want ErrClosed", err)
	}
	if err := c.Ping(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed server, healthz: err = %v, want ErrClosed", err)
	}
}
