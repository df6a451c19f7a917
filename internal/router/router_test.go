package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nau"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// trainedGCN mirrors the serve-package helper: a briefly trained GCN with
// its trainer and dataset, for parity checks against Trainer.Predict.
func trainedGCN(t *testing.T, scale float64) (*nau.Trainer, *dataset.Dataset) {
	t.Helper()
	d := dataset.RedditLike(dataset.Config{Scale: scale, Seed: 1})
	model := models.NewGCN(d.FeatureDim(), 16, d.NumClasses, tensor.NewRNG(1))
	tr := nau.NewTrainerWith(model, nau.TrainerOptions{
		Graph: d.Graph, Features: d.Features, Labels: d.Labels,
		TrainMask: d.TrainMask, Seed: 1,
	})
	for epoch := 0; epoch < 3; epoch++ {
		if _, err := tr.Epoch(); err != nil {
			t.Fatalf("epoch: %v", err)
		}
	}
	return tr, d
}

// newReplicaServer stands up one in-process InferenceServer replica with
// its own registry — each replica of a fleet has private caches and
// metrics, exactly like separate processes.
func newReplicaServer(t *testing.T, tr *nau.Trainer, d *dataset.Dataset, opts serve.Options) (*serve.Server, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	opts.Model = tr.Model
	opts.Graph = d.Graph
	opts.Features = d.Features
	opts.Engine = tr.Engine
	opts.Metrics = reg
	s, err := serve.New(opts)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(s.Close)
	return s, reg
}

func newTestRouter(t *testing.T, opts Options) (*Router, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	opts.Metrics = reg
	rt, err := New(opts)
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	t.Cleanup(rt.Close)
	return rt, reg
}

// assertBitIdentical checks every reply row against whole-graph logits.
func assertBitIdentical(t *testing.T, reply *serve.Reply, whole *tensor.Tensor) {
	t.Helper()
	for _, r := range reply.Results {
		if len(r.Logits) != whole.Cols() {
			t.Fatalf("vertex %d: %d logits, want %d", r.Vertex, len(r.Logits), whole.Cols())
		}
		for j, x := range r.Logits {
			if want := whole.At(int(r.Vertex), j); x != want {
				t.Fatalf("vertex %d logit %d: routed %v != Predict %v (not bit-identical)",
					r.Vertex, j, x, want)
			}
		}
	}
}

// fakeRep is a scriptable Querier replica: per-vertex call counts, optional
// latency, optional injected failure. Health probes (empty queries) go
// through Query like everything else.
type fakeRep struct {
	version int64
	delay   time.Duration

	mu      sync.Mutex
	failing bool
	calls   map[graph.VertexID]int
}

func newFakeRep(version int64, delay time.Duration) *fakeRep {
	return &fakeRep{version: version, delay: delay, calls: map[graph.VertexID]int{}}
}

func (f *fakeRep) Query(ctx context.Context, vertices []graph.VertexID) (*serve.Reply, error) {
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failing {
		return nil, errors.New("fake replica: injected failure")
	}
	results := make([]serve.Result, len(vertices))
	for i, v := range vertices {
		f.calls[v]++
		results[i] = serve.Result{Vertex: v, Logits: []float32{float32(v), -float32(v)}}
	}
	return &serve.Reply{ModelVersion: f.version, Results: results}, nil
}

func (f *fakeRep) ModelVersion() int64 { return f.version }
func (f *fakeRep) Close()              {}

func (f *fakeRep) setFailing(b bool) {
	f.mu.Lock()
	f.failing = b
	f.mu.Unlock()
}

func (f *fakeRep) callCount(v graph.VertexID) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[v]
}

// dyingRep is a replica that dies while a query it accepted is in flight: its
// first query waits for release and then succeeds, and every later query or
// probe fails with serve.ErrClosed.
type dyingRep struct {
	calls            atomic.Int32
	entered, release chan struct{}
}

func (d *dyingRep) Query(_ context.Context, vertices []graph.VertexID) (*serve.Reply, error) {
	if d.calls.Add(1) > 1 || len(vertices) == 0 {
		return nil, serve.ErrClosed
	}
	close(d.entered)
	<-d.release
	results := make([]serve.Result, len(vertices))
	for i, v := range vertices {
		results[i] = serve.Result{Vertex: v, Logits: []float32{float32(v)}}
	}
	return &serve.Reply{ModelVersion: 1, Results: results}, nil
}

func (d *dyingRep) ModelVersion() int64 { return 1 }
func (d *dyingRep) Close()              {}

// TestRouterLateSuccessDoesNotRevive: a query dispatched to a replica before
// its eviction can succeed after it — the replica finishes the batch it was
// running as it dies. That success is older than the failure that evicted
// the replica, and must not put a dead replica back on the ring.
func TestRouterLateSuccessDoesNotRevive(t *testing.T) {
	rep := &dyingRep{entered: make(chan struct{}), release: make(chan struct{})}
	rt, reg := newTestRouter(t, Options{Replicas: fleet(rep), FailureThreshold: 1, HealthEvery: time.Hour})
	early := make(chan error, 1)
	go func() {
		_, err := rt.Query(context.Background(), []graph.VertexID{1})
		early <- err
	}()
	<-rep.entered
	if _, err := rt.Query(context.Background(), []graph.VertexID{2}); err == nil {
		t.Fatal("the dead replica answered")
	}
	if rt.HealthyReplicas() != 0 {
		t.Fatalf("healthy replicas = %d after the failure, want 0", rt.HealthyReplicas())
	}
	close(rep.release)
	if err := <-early; err != nil {
		t.Fatalf("the query dispatched before the eviction: %v", err)
	}
	if rt.HealthyReplicas() != 0 || reg.Counter("router_revivals_total").Load() != 0 {
		t.Fatalf("a success dispatched before the eviction revived the replica (healthy %d, revivals %d)",
			rt.HealthyReplicas(), reg.Counter("router_revivals_total").Load())
	}
}

func fleet(reps ...serve.Querier) []Replica {
	out := make([]Replica, len(reps))
	for i, q := range reps {
		out[i] = Replica{Name: fmt.Sprintf("fake-%d", i), Querier: q}
	}
	return out
}

// --- HTTP plumbing shared by the smoke tests ---------------------------

func postQuery(t *testing.T, baseURL string, verts []graph.VertexID) (*serve.Reply, int, string) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"vertices": verts})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/predict: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er struct {
			Code string `json:"code"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return nil, resp.StatusCode, er.Code
	}
	var reply serve.Reply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatalf("decode reply: %v", err)
	}
	return &reply, resp.StatusCode, ""
}

func metricsCounters(t *testing.T, baseURL string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics?format=json")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /metrics json: %v", err)
	}
	return snap.Counters
}

// --- the RouterSmoke suite (make router-smoke runs exactly these) ------

// TestRouterSmokeBitParity: the tentpole's correctness criterion, in
// process. Routed answers — including hot vertices spread over overflow
// replicas — are bit-identical to a whole-graph Trainer.Predict, with reply
// rows in input order and duplicates preserved.
func TestRouterSmokeBitParity(t *testing.T) {
	tr, d := trainedGCN(t, 0.05)
	whole, err := tr.Predict()
	if err != nil {
		t.Fatal(err)
	}
	var reps []Replica
	for i := 0; i < 3; i++ {
		s, _ := newReplicaServer(t, tr, d, serve.Options{})
		reps = append(reps, Replica{Name: fmt.Sprintf("replica-%d", i), Querier: s})
	}
	rt, reg := newTestRouter(t, Options{
		Replicas:          reps,
		HotThreshold:      2, // the hub below turns hot almost immediately
		HotWindow:         10 * time.Second,
		ReplicationFactor: 3,
	})

	const hub = 7
	n := d.Graph.NumVertices()
	ctx := context.Background()
	for round := 0; round < 12; round++ {
		verts := []graph.VertexID{hub}
		for k := 0; k < 6; k++ {
			verts = append(verts, graph.VertexID((round*31+k*17)%n))
		}
		verts = append(verts, verts[1], hub) // duplicates must round-trip
		reply, err := rt.Query(ctx, verts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(reply.Results) != len(verts) {
			t.Fatalf("round %d: %d results for %d vertices", round, len(reply.Results), len(verts))
		}
		for i, v := range verts {
			if reply.Results[i].Vertex != v {
				t.Fatalf("round %d: result %d is vertex %d, want %d (input order violated)",
					round, i, reply.Results[i].Vertex, v)
			}
		}
		assertBitIdentical(t, reply, whole)
	}
	if reg.Counter("router_hot_routed_total").Load() == 0 {
		t.Fatal("hub vertex never took the hot-replication path — the parity claim above did not cover it")
	}
}

// TestRouterSmokeCacheLocality: the tentpole's capacity argument, over real
// loopback HTTP. With a per-replica embedding cache too small for the whole
// working set but big enough for one shard, consistent-hash routing keeps
// every replica's cache hit rate above the single unsharded server's — and
// the routed answers stay bit-identical to that single server's.
//
// The graph is a sparse ring lattice and the sweep strides over it so the
// per-shard working sets are mostly disjoint; the working set is probed
// empirically (no magic row counts).
func TestRouterSmokeCacheLocality(t *testing.T) {
	const (
		n      = 2880 // vertices in the lattice
		stride = 8    // sweep every 8th vertex: shard closures stay disjoint
		sweepN = 360  // distinct query vertices per round
		batch  = 8    // vertices per request
		rounds = 3
	)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddUndirected(graph.VertexID(v), graph.VertexID((v+1)%n))
		b.AddUndirected(graph.VertexID(v), graph.VertexID((v+5)%n))
	}
	g := b.Build()
	rng := tensor.NewRNG(7)
	feats := tensor.RandN(rng, 0.5, n, 12)
	model := models.NewGCN(12, 8, 4, rng)

	newSrv := func(cacheRows int) (*serve.Server, *metrics.Registry) {
		t.Helper()
		reg := metrics.NewRegistry()
		s, err := serve.New(serve.Options{
			Model: model, Graph: g, Features: feats,
			CacheCapacity: cacheRows, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s, reg
	}
	sweepBatches := func() [][]graph.VertexID {
		var out [][]graph.VertexID
		for lo := 0; lo < sweepN; lo += batch {
			verts := make([]graph.VertexID, 0, batch)
			for k := 0; k < batch; k++ {
				verts = append(verts, graph.VertexID((lo+k)*stride))
			}
			out = append(out, verts)
		}
		return out
	}()
	hitRate := func(c map[string]int64) float64 {
		h, m := c["serve_cache_hits_total"], c["serve_cache_misses_total"]
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	}
	ctx := context.Background()

	// Probe the sweep's working set on an effectively unbounded cache; this
	// server doubles as the single whole-graph parity reference.
	reference, _ := newSrv(1 << 20)
	for _, verts := range sweepBatches {
		if _, err := reference.Query(ctx, verts); err != nil {
			t.Fatal(err)
		}
	}
	working := reference.CacheLen()
	cacheRows := working / 2
	if cacheRows < 3*batch {
		t.Fatalf("working set %d rows — sweep too small to exercise the cache", working)
	}

	// Baseline: one unsharded server whose cache cannot hold the sweep.
	single, singleReg := newSrv(cacheRows)
	for r := 0; r < rounds; r++ {
		for _, verts := range sweepBatches {
			if _, err := single.Query(ctx, verts); err != nil {
				t.Fatal(err)
			}
		}
	}
	baseRate := hitRate(singleReg.Snapshot().Counters)

	// Sharded: three replicas with the same too-small cache, each behind a
	// real loopback listener, fronted by the router's own HTTP surface.
	var reps []Replica
	var repURLs []string
	for i := 0; i < 3; i++ {
		s, _ := newSrv(cacheRows)
		addr, shutdown, err := s.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = shutdown() })
		c := serve.NewClient(addr, serve.ClientOptions{})
		t.Cleanup(c.Close)
		reps = append(reps, Replica{Name: addr, Querier: c})
		repURLs = append(repURLs, "http://"+addr)
	}
	rt, _ := newTestRouter(t, Options{Replicas: reps})
	rtAddr, rtShutdown, err := rt.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rtShutdown() })
	rtURL := "http://" + rtAddr

	for r := 0; r < rounds; r++ {
		for _, verts := range sweepBatches {
			reply, code, errCode := postQuery(t, rtURL, verts)
			if reply == nil {
				t.Fatalf("round %d: routed query failed: HTTP %d code=%q", r, code, errCode)
			}
			// Routed-vs-single bit parity, over the wire.
			want, err := reference.Query(ctx, verts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range verts {
				got, ref := reply.Results[i], want.Results[i]
				if got.Vertex != ref.Vertex || got.Class != ref.Class {
					t.Fatalf("round %d vertex %d: routed (%d,%d) != single (%d,%d)",
						r, verts[i], got.Vertex, got.Class, ref.Vertex, ref.Class)
				}
				for j := range ref.Logits {
					if got.Logits[j] != ref.Logits[j] {
						t.Fatalf("round %d vertex %d logit %d: routed %v != single %v (not bit-identical)",
							r, verts[i], j, got.Logits[j], ref.Logits[j])
					}
				}
			}
		}
	}

	// Per-replica cache hit rate, read the way an operator would: each
	// replica's /metrics?format=json.
	for i, u := range repURLs {
		if r := hitRate(metricsCounters(t, u)); r <= baseRate {
			t.Errorf("replica %d hit rate %.3f <= unsharded baseline %.3f — sharding lost cache locality",
				i, r, baseRate)
		}
	}
	rc := metricsCounters(t, rtURL)
	if want := int64(rounds * len(sweepBatches)); rc["router_requests_total"] < want {
		t.Errorf("router_requests_total = %d, want >= %d", rc["router_requests_total"], want)
	}
	if rc["router_shed_total"] != 0 {
		t.Errorf("router_shed_total = %d during an unloaded sweep", rc["router_shed_total"])
	}
}

// TestRouterSmokeChaos: kill 1 of 3 HTTP replicas in the middle of a
// concurrent burst. Every request must be answered (correctly) or fail with
// a typed error within its deadline — the ring retry absorbs the failure —
// and the dead replica must be evicted.
func TestRouterSmokeChaos(t *testing.T) {
	tr, d := trainedGCN(t, 0.05)
	whole, err := tr.Predict()
	if err != nil {
		t.Fatal(err)
	}
	n := d.Graph.NumVertices()

	var reps []Replica
	var servers []*serve.Server
	var shutdowns []func() error
	for i := 0; i < 3; i++ {
		s, _ := newReplicaServer(t, tr, d, serve.Options{})
		addr, shutdown, err := s.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = shutdown() })
		c := serve.NewClient(addr, serve.ClientOptions{})
		t.Cleanup(c.Close)
		servers = append(servers, s)
		shutdowns = append(shutdowns, shutdown)
		reps = append(reps, Replica{Name: addr, Querier: c})
	}
	rt, reg := newTestRouter(t, Options{
		Replicas:         reps,
		FailureThreshold: 1,
		HealthEvery:      50 * time.Millisecond,
	})

	const (
		workers   = 6
		perWorker = 20
	)
	type outcome struct {
		err   error
		reply *serve.Reply
		verts []graph.VertexID
	}
	results := make(chan outcome, workers*perWorker)
	var completed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				verts := []graph.VertexID{
					graph.VertexID((w*37 + k*11) % n),
					graph.VertexID((w*53 + k*29 + 1) % n),
					graph.VertexID((w*13 + k*71 + 2) % n),
					graph.VertexID((w*97 + k*41 + 3) % n),
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				reply, err := rt.Query(ctx, verts)
				cancel()
				completed.Add(1)
				results <- outcome{err: err, reply: reply, verts: verts}
			}
		}(w)
	}

	// Mid-burst — after a fixed fraction of requests has completed, so the
	// kill always lands with traffic still in flight — kill replica 1:
	// reject in-flight queries, then drop the listener so new dials are
	// refused too.
	for completed.Load() < workers*perWorker/4 {
		time.Sleep(time.Millisecond)
	}
	servers[1].Close()
	_ = shutdowns[1]()

	wg.Wait()
	close(results)
	succeeded, failed := 0, 0
	for o := range results {
		if o.err != nil {
			// "Answered or fails typed": the only acceptable failures are
			// the tier's typed errors.
			var overload *serve.OverloadError
			if !errors.As(o.err, &overload) && !errors.Is(o.err, serve.ErrClosed) &&
				!errors.Is(o.err, context.DeadlineExceeded) {
				t.Fatalf("untyped failure during replica kill: %v", o.err)
			}
			failed++
			continue
		}
		succeeded++
		if len(o.reply.Results) != len(o.verts) {
			t.Fatalf("short reply: %d results for %d vertices", len(o.reply.Results), len(o.verts))
		}
		assertBitIdentical(t, o.reply, whole)
	}
	if succeeded < workers*perWorker/2 {
		t.Fatalf("only %d/%d requests survived the replica kill (failed typed: %d)",
			succeeded, workers*perWorker, failed)
	}
	if rt.HealthyReplicas() != 2 {
		t.Fatalf("healthy replicas = %d after the kill, want 2", rt.HealthyReplicas())
	}
	if reg.Counter("router_evictions_total").Load() == 0 {
		t.Fatal("the dead replica was never evicted from the ring")
	}
	if reg.Counter("router_retries_total").Load() == 0 {
		t.Fatal("no shard ever failed over — the kill did not exercise the retry path")
	}
	// The fleet keeps answering afterwards.
	reply, err := rt.Query(context.Background(), []graph.VertexID{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatalf("post-kill query: %v", err)
	}
	assertBitIdentical(t, reply, whole)
}

// TestRouterSmokeOverload: a replica slower than the SLO trips the p99
// admission gate — typed *OverloadError in process, HTTP 429 with a shed
// counter on the wire — and admission recovers once the windows drain.
func TestRouterSmokeOverload(t *testing.T) {
	slow := newFakeRep(1, 20*time.Millisecond)
	rt, _ := newTestRouter(t, Options{
		Replicas:  fleet(slow),
		SLO:       5 * time.Millisecond,
		SLOWindow: 300 * time.Millisecond,
	})
	ts := httptest.NewServer(rt.Mux())
	defer ts.Close()
	ctx := context.Background()

	// First request is admitted (no latency estimate yet) and observed.
	if _, err := rt.Query(ctx, []graph.VertexID{1}); err != nil {
		t.Fatalf("first query: %v", err)
	}
	// Now the windowed p99 (~20ms) breaks the 5ms SLO: shed, typed.
	var overload *serve.OverloadError
	if _, err := rt.Query(ctx, []graph.VertexID{2}); !errors.As(err, &overload) {
		t.Fatalf("err = %v, want *serve.OverloadError", err)
	}
	if overload.P99 <= overload.SLO || overload.SLO != 5*time.Millisecond {
		t.Fatalf("overload fields: %+v", overload)
	}
	// Same gate on the HTTP surface: 429 with the overload code.
	if _, code, errCode := postQuery(t, ts.URL, []graph.VertexID{3}); code != http.StatusTooManyRequests || errCode != "overload" {
		t.Fatalf("HTTP shed: status %d code %q, want 429 %q", code, errCode, "overload")
	}
	if c := metricsCounters(t, ts.URL); c["router_shed_total"] < 2 {
		t.Fatalf("router_shed_total = %d, want >= 2", c["router_shed_total"])
	}
	if got := slow.callCount(3); got != 0 {
		t.Fatalf("shed request still reached the replica (%d calls)", got)
	}

	// Shed requests are never observed, so two idle windows drain the
	// estimate and the gate reopens.
	time.Sleep(750 * time.Millisecond)
	if _, err := rt.Query(ctx, []graph.VertexID{4}); err != nil {
		t.Fatalf("admission did not recover after idle windows: %v", err)
	}
}

// TestRouterSmokeInflightCap: the hard concurrency gate sheds typed before
// touching any replica, independent of the latency estimate.
func TestRouterSmokeInflightCap(t *testing.T) {
	slow := newFakeRep(1, 150*time.Millisecond)
	rt, reg := newTestRouter(t, Options{Replicas: fleet(slow), MaxInflight: 1})
	ctx := context.Background()

	started := make(chan struct{})
	first := make(chan error, 1)
	go func() {
		close(started)
		_, err := rt.Query(ctx, []graph.VertexID{1})
		first <- err
	}()
	<-started
	time.Sleep(30 * time.Millisecond) // the first request now holds the slot

	var overload *serve.OverloadError
	if _, err := rt.Query(ctx, []graph.VertexID{2}); !errors.As(err, &overload) {
		t.Fatalf("err = %v, want *serve.OverloadError", err)
	}
	if overload.MaxInflight != 1 || overload.Inflight <= 1 {
		t.Fatalf("overload fields: %+v", overload)
	}
	if err := <-first; err != nil {
		t.Fatalf("admitted request failed: %v", err)
	}
	if reg.Counter("router_shed_total").Load() == 0 {
		t.Fatal("router_shed_total not incremented")
	}
}

// TestRouterSmokeHotOverflow: a hammered vertex crosses the hot threshold
// and its traffic spreads over ReplicationFactor replicas, while cold
// vertices stay pinned to their single consistent-hash owner.
func TestRouterSmokeHotOverflow(t *testing.T) {
	reps := []*fakeRep{newFakeRep(1, 0), newFakeRep(1, 0), newFakeRep(1, 0)}
	rt, reg := newTestRouter(t, Options{
		Replicas:          fleet(reps[0], reps[1], reps[2]),
		HotThreshold:      3,
		HotWindow:         10 * time.Second, // no rotation mid-test
		ReplicationFactor: 2,
	})
	ctx := context.Background()

	const hub, cold = 7, 301
	for i := 0; i < 40; i++ {
		if _, err := rt.Query(ctx, []graph.VertexID{hub}); err != nil {
			t.Fatalf("hub query %d: %v", i, err)
		}
	}
	for i := 0; i < 2; i++ { // stays below the threshold
		if _, err := rt.Query(ctx, []graph.VertexID{cold}); err != nil {
			t.Fatalf("cold query %d: %v", i, err)
		}
	}

	hubOwners, coldOwners := 0, 0
	for _, f := range reps {
		if f.callCount(hub) > 0 {
			hubOwners++
		}
		if f.callCount(cold) > 0 {
			coldOwners++
		}
	}
	if hubOwners < 2 {
		t.Fatalf("hot vertex served by %d replica(s), want >= 2 (overflow replication)", hubOwners)
	}
	if coldOwners != 1 {
		t.Fatalf("cold vertex served by %d replicas, want exactly 1 (cache locality)", coldOwners)
	}
	if reg.Counter("router_hot_routed_total").Load() == 0 {
		t.Fatal("router_hot_routed_total not incremented")
	}
}

// TestRouterSmokeRevival: an evicted replica is probed in the background
// and restored to the ring once it answers again, and its shard moves back.
func TestRouterSmokeRevival(t *testing.T) {
	a, b := newFakeRep(1, 0), newFakeRep(1, 0)
	rt, reg := newTestRouter(t, Options{
		Replicas:         fleet(a, b),
		FailureThreshold: 1,
		HealthEvery:      20 * time.Millisecond,
	})
	ctx := context.Background()

	const v = 1
	if _, err := rt.Query(ctx, []graph.VertexID{v}); err != nil {
		t.Fatal(err)
	}
	primary, backup := a, b
	if b.callCount(v) > 0 {
		primary, backup = b, a
	}

	primary.setFailing(true)
	reply, err := rt.Query(ctx, []graph.VertexID{v})
	if err != nil {
		t.Fatalf("query during replica failure: %v (ring retry should have cured it)", err)
	}
	if len(reply.Results) != 1 || reply.Results[0].Vertex != v {
		t.Fatalf("failover reply: %+v", reply)
	}
	if backup.callCount(v) == 0 {
		t.Fatal("failover never reached the backup replica")
	}
	if rt.HealthyReplicas() != 1 || reg.Counter("router_evictions_total").Load() == 0 {
		t.Fatalf("primary not evicted: healthy=%d evictions=%d",
			rt.HealthyReplicas(), reg.Counter("router_evictions_total").Load())
	}

	// Heal the primary; the background prober must restore it. The prober
	// flips the healthy flag before it increments the counter, so both are
	// polled under the one deadline.
	primary.setFailing(false)
	deadline := time.Now().Add(2 * time.Second)
	for rt.HealthyReplicas() != 2 || reg.Counter("router_revivals_total").Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("healed replica was never revived by the health prober: healthy=%d revivals=%d",
				rt.HealthyReplicas(), reg.Counter("router_revivals_total").Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	before := primary.callCount(v)
	if _, err := rt.Query(ctx, []graph.VertexID{v}); err != nil {
		t.Fatal(err)
	}
	if primary.callCount(v) <= before {
		t.Fatal("traffic did not return to the primary after revival")
	}
}

// TestRouterQuerySemantics: the small contracts — empty queries, duplicate
// preservation, the vertex cap, fleet model version, constructor errors.
func TestRouterQuerySemantics(t *testing.T) {
	a, b := newFakeRep(4, 0), newFakeRep(9, 0)
	rt, _ := newTestRouter(t, Options{Replicas: fleet(a, b), MaxQueryVertices: 3})
	ctx := context.Background()

	reply, err := rt.Query(ctx, nil)
	if err != nil || len(reply.Results) != 0 {
		t.Fatalf("empty query: %v %+v", err, reply)
	}
	if reply.ModelVersion != 4 {
		t.Fatalf("fleet model version = %d, want min(4,9) = 4", reply.ModelVersion)
	}
	if rt.ModelVersion() != 4 {
		t.Fatalf("ModelVersion() = %d, want 4", rt.ModelVersion())
	}

	reply, err = rt.Query(ctx, []graph.VertexID{5, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.VertexID{5, 5, 9}
	for i, v := range want {
		if reply.Results[i].Vertex != v {
			t.Fatalf("result %d: vertex %d, want %d (duplicates must round-trip in order)",
				i, reply.Results[i].Vertex, v)
		}
	}

	var limitErr *serve.QueryLimitError
	if _, err := rt.Query(ctx, []graph.VertexID{1, 2, 3, 4}); !errors.As(err, &limitErr) {
		t.Fatalf("over cap: err = %v, want *serve.QueryLimitError", err)
	}
	if limitErr.Count != 4 || limitErr.Limit != 3 {
		t.Fatalf("limit fields: %+v", limitErr)
	}

	if _, err := New(Options{}); err == nil {
		t.Fatal("New with no replicas must fail")
	}
	if _, err := New(Options{Replicas: []Replica{{Name: "x"}}}); err == nil {
		t.Fatal("New with a nil Querier must fail")
	}
	rt.Close()
	rt.Close() // idempotent
}
