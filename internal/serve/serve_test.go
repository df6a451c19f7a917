package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nau"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// trainedGCN returns a briefly trained GCN with its trainer and dataset.
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

// newServer stands up a server over tr's model with a fresh registry.
func newServer(t *testing.T, tr *nau.Trainer, d *dataset.Dataset, opts Options) (*Server, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	opts.Model = tr.Model
	opts.Graph = d.Graph
	opts.Features = d.Features
	opts.Engine = tr.Engine
	opts.Metrics = reg
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s, reg
}

// assertBitIdentical checks every reply row against the whole-graph logits.
func assertBitIdentical(t *testing.T, reply *Reply, whole *tensor.Tensor) {
	t.Helper()
	for _, r := range reply.Results {
		if len(r.Logits) != whole.Cols() {
			t.Fatalf("vertex %d: %d logits, want %d", r.Vertex, len(r.Logits), whole.Cols())
		}
		for j, x := range r.Logits {
			if want := whole.At(int(r.Vertex), j); x != want {
				t.Fatalf("vertex %d logit %d: served %v != Predict %v (not bit-identical)",
					r.Vertex, j, x, want)
			}
		}
	}
}

// assertAllRootsBatchIdentical is the mini-batch leg of the cross-driver
// parity chain: store.Forward over one batch whose roots are all vertices
// reproduces the whole-graph logits bit for bit. (The cluster leg, a k=1
// worker's forward against the same Trainer.Predict, lives in
// internal/cluster.)
func assertAllRootsBatchIdentical(t *testing.T, tr *nau.Trainer, d *dataset.Dataset, whole *tensor.Tensor) {
	t.Helper()
	layer0 := tr.Model.Layers[0]
	local := store.NewLocal(store.LocalConfig{Graph: d.Graph, Features: d.Features,
		Schema: layer0.Schema(), UDF: layer0.NeighborUDF()})
	sampler := store.NewSampler(local, local, store.SamplerOptions{Layers: len(tr.Model.Layers), Schema: layer0.Schema()})
	st := sampler.Epoch(context.Background(), 0, [][]graph.VertexID{nau.AllVertices(d.Graph)})
	defer st.Close()
	b, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	logits, err := store.Forward(tr.Model, tr.Engine, d.Graph, b, tensor.NewRNG(0), false)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(logits.Data.Data(), whole.Data()) {
		t.Fatal("store.Forward over an all-roots batch is not bit-identical to Trainer.Predict")
	}
}

// TestServeBitIdenticalGCN proves the acceptance criterion for the DNFA
// path: micro-batched serving — cold, fully cached, and mixed — answers
// bit-identically to a whole-graph Trainer.Predict.
func TestServeBitIdenticalGCN(t *testing.T) {
	tr, d := trainedGCN(t, 0.05)
	s, reg := newServer(t, tr, d, Options{})
	whole, err := tr.Predict()
	if err != nil {
		t.Fatal(err)
	}
	assertAllRootsBatchIdentical(t, tr, d, whole)

	verts := []graph.VertexID{0, 3, 9, 17, 42}
	cold, err := s.Query(context.Background(), verts)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, cold, whole)
	if s.CacheLen() == 0 {
		t.Fatal("cold query populated no cache rows")
	}

	// Warm: the top layer answers from cache.
	hits0 := reg.Counter("serve_cache_hits_total").Load()
	warm, err := s.Query(context.Background(), verts)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, warm, whole)
	if reg.Counter("serve_cache_hits_total").Load() <= hits0 {
		t.Fatal("repeat query produced no cache hits")
	}

	// Mixed: some cached roots, some cold — exercises the hits/miss split.
	mixed, err := s.Query(context.Background(), []graph.VertexID{3, 55, 17, 81})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, mixed, whole)
}

// TestServeBitIdenticalHierarchical proves the same for the INHA path
// (MAGNN over the heterogeneous IMDB shape): deterministic metapath
// neighborhoods through the 3-level HDG driver.
func TestServeBitIdenticalHierarchical(t *testing.T) {
	d := dataset.IMDBLike(dataset.Config{Scale: 0.05, Seed: 2})
	model := models.NewMAGNN(d.FeatureDim(), 8, d.NumClasses, d.Metapaths,
		models.MAGNNConfig{MaxInstances: 6}, tensor.NewRNG(2))
	tr := nau.NewTrainerWith(model, nau.TrainerOptions{
		Graph: d.Graph, Features: d.Features, Labels: d.Labels,
		TrainMask: d.TrainMask, Seed: 2,
	})
	for epoch := 0; epoch < 2; epoch++ {
		if _, err := tr.Epoch(); err != nil {
			t.Fatalf("epoch: %v", err)
		}
	}
	s, _ := newServer(t, tr, d, Options{})
	whole, err := tr.Predict()
	if err != nil {
		t.Fatal(err)
	}
	assertAllRootsBatchIdentical(t, tr, d, whole)
	verts := []graph.VertexID{0, 1, 5, 11, 23}
	for round := 0; round < 2; round++ { // cold, then cache-assisted
		reply, err := s.Query(context.Background(), verts)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, reply, whole)
	}
}

// trainedPinSage returns a small PinSage trained one epoch by a trainer
// seeded seed, with the trainer and the dataset.
func trainedPinSage(t *testing.T, seed uint64) (*nau.Trainer, *dataset.Dataset) {
	t.Helper()
	d := dataset.RedditLike(dataset.Config{Scale: 0.05, Seed: 3})
	model := models.NewPinSage(d.FeatureDim(), 8, d.NumClasses,
		models.PinSageConfig{NumWalks: 3, Hops: 2, TopK: 3}, tensor.NewRNG(3))
	tr := nau.NewTrainerWith(model, nau.TrainerOptions{
		Graph: d.Graph, Features: d.Features, Labels: d.Labels,
		TrainMask: d.TrainMask, Seed: seed,
	})
	if _, err := tr.Epoch(); err != nil {
		t.Fatal(err)
	}
	return tr, d
}

// TestServePinSageDeterministic: sampling models serve deterministically —
// per-vertex seeds make a vertex's neighborhood independent of batch
// composition and cache state.
func TestServePinSageDeterministic(t *testing.T) {
	tr, d := trainedPinSage(t, 3)
	s, _ := newServer(t, tr, d, Options{Seed: 7})

	first, err := s.Query(context.Background(), []graph.VertexID{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	// Drop the cache so the second answer is recomputed from scratch, in a
	// different batch composition.
	s.InvalidateCache()
	second, err := s.Query(context.Background(), []graph.VertexID{8, 2, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	byV := map[graph.VertexID][]float32{}
	for _, r := range second.Results {
		byV[r.Vertex] = r.Logits
	}
	for _, r := range first.Results {
		for j, x := range r.Logits {
			if x != byV[r.Vertex][j] {
				t.Fatalf("vertex %d logit %d changed across recomputation: %v != %v",
					r.Vertex, j, x, byV[r.Vertex][j])
			}
		}
	}
}

// TestServePinSageMatchesSamplerEpochZero: serving selects through the
// store's Sample at epoch 0 of its seed, so served PinSage logits — cold, then
// from the cache — equal bit for bit store.Forward over one all-roots batch
// of a mini-batch sampler in its epoch 0 under the same seed.
func TestServePinSageMatchesSamplerEpochZero(t *testing.T) {
	const seed = 7
	tr, d := trainedPinSage(t, 3)
	model := tr.Model
	s, reg := newServer(t, tr, d, Options{Seed: seed})

	layer0 := model.Layers[0]
	local := store.NewLocal(store.LocalConfig{Graph: d.Graph, Features: d.Features,
		Schema: layer0.Schema(), UDF: layer0.NeighborUDF()})
	sampler := store.NewSampler(local, local, store.SamplerOptions{Layers: len(model.Layers), Schema: layer0.Schema(), Seed: seed})
	st := sampler.Epoch(context.Background(), 0, [][]graph.VertexID{nau.AllVertices(d.Graph)})
	defer st.Close()
	b, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	want, err := store.Forward(model, tr.Engine, d.Graph, b, tensor.NewRNG(0), false)
	if err != nil {
		t.Fatal(err)
	}

	verts := []graph.VertexID{2, 4, 8, 16, 99}
	for round := 0; round < 2; round++ { // cold, then from the cache
		reply, err := s.Query(context.Background(), verts)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, reply, want.Data)
	}
	if reg.Counter("serve_cache_hits_total").Load() < int64(len(verts)) {
		t.Fatal("the second query was not answered from the cache")
	}
}

// TestServePinSageBitIdenticalToPredict: the Trainer selects epoch e by
// VertexSeed(EpochSeed(seed, e), v), as serving does at e = 0, so after one
// epoch — while Predict still reads epoch 0's HDG — a server with the
// trainer's seed answers Predict's PinSage logits bit for bit, cold and from
// the cache.
func TestServePinSageBitIdenticalToPredict(t *testing.T) {
	const seed = 7
	tr, d := trainedPinSage(t, seed)
	s, reg := newServer(t, tr, d, Options{Seed: seed})
	whole, err := tr.Predict()
	if err != nil {
		t.Fatal(err)
	}
	verts := []graph.VertexID{2, 4, 8, 16, 99}
	for round := 0; round < 2; round++ { // cold, then from the cache
		reply, err := s.Query(context.Background(), verts)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, reply, whole)
	}
	if reg.Counter("serve_cache_hits_total").Load() < int64(len(verts)) {
		t.Fatal("the second query was not answered from the cache")
	}
}

// TestServeCacheInvalidation: an UpdateModel bumps the version, and the next
// query recomputes against the new weights rather than reusing stale rows.
func TestServeCacheInvalidation(t *testing.T) {
	tr, d := trainedGCN(t, 0.05)
	s, reg := newServer(t, tr, d, Options{})
	verts := []graph.VertexID{1, 2, 3, 4}

	before, err := s.Query(context.Background(), verts)
	if err != nil {
		t.Fatal(err)
	}
	if v := s.ModelVersion(); v != 1 || before.ModelVersion != 1 {
		t.Fatalf("fresh server at version %d / reply %d, want 1", v, before.ModelVersion)
	}

	// Train one more epoch under the server's exclusion lock.
	if err := s.UpdateModel(func() error { _, err := tr.Epoch(); return err }); err != nil {
		t.Fatal(err)
	}
	if v := s.ModelVersion(); v != 2 {
		t.Fatalf("version after UpdateModel = %d, want 2", v)
	}

	misses0 := reg.Counter("serve_cache_misses_total").Load()
	after, err := s.Query(context.Background(), verts)
	if err != nil {
		t.Fatal(err)
	}
	if after.ModelVersion != 2 {
		t.Fatalf("reply version %d, want 2", after.ModelVersion)
	}
	if reg.Counter("serve_cache_misses_total").Load() <= misses0 {
		t.Fatal("post-update query hit stale cache rows")
	}
	whole, err := tr.Predict()
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, after, whole)

	// The answers must actually differ from the pre-update ones (the weights
	// moved), otherwise this test proves nothing.
	changed := false
	for i, r := range after.Results {
		for j, x := range r.Logits {
			if x != before.Results[i].Logits[j] {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("logits unchanged after a training epoch")
	}
}

// TestServeConcurrentBatching hammers the server from many goroutines (run
// under -race) and checks every reply is bit-identical to Predict whatever
// batches the requests fell into. (How batches form is pinned, without a
// clock, by the batching-contract tests in batching_test.go.)
func TestServeConcurrentBatching(t *testing.T) {
	tr, d := trainedGCN(t, 0.05)
	s, reg := newServer(t, tr, d, Options{BatchSize: 8})
	whole, err := tr.Predict()
	if err != nil {
		t.Fatal(err)
	}
	const N = 64
	var wg sync.WaitGroup
	errs := make(chan error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := graph.VertexID(i % 32) // overlap guarantees shared work + cache traffic
			reply, err := s.Query(context.Background(), []graph.VertexID{v})
			if err != nil {
				errs <- fmt.Errorf("query %d: %w", v, err)
				return
			}
			for j, x := range reply.Results[0].Logits {
				if want := whole.At(int(v), j); x != want {
					errs <- fmt.Errorf("vertex %d logit %d: %v != %v", v, j, x, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if batches := reg.Counter("serve_batches_total").Load(); batches == 0 || batches > N {
		t.Fatalf("%d requests ran as %d batches", N, batches)
	}
}

// TestServeConcurrentWithUpdates interleaves queries with model updates
// (run under -race): every reply must be internally consistent with the
// version it reports.
func TestServeConcurrentWithUpdates(t *testing.T) {
	tr, d := trainedGCN(t, 0.03)
	s, _ := newServer(t, tr, d, Options{BatchSize: 4})
	stop := make(chan struct{})
	var updWG sync.WaitGroup
	updWG.Add(1)
	go func() {
		defer updWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.UpdateModel(func() error { _, err := tr.Epoch(); return err })
				time.Sleep(time.Millisecond)
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				if _, err := s.Query(context.Background(), []graph.VertexID{graph.VertexID(i)}); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	updWG.Wait()
}

// TestServeQueryErrors covers the request-validation and lifecycle errors.
func TestServeQueryErrors(t *testing.T) {
	tr, d := trainedGCN(t, 0.03)
	s, _ := newServer(t, tr, d, Options{})

	if _, err := s.Query(context.Background(), []graph.VertexID{graph.VertexID(d.Graph.NumVertices())}); !errors.Is(err, ErrBadVertex) {
		t.Fatalf("out-of-range vertex: err = %v, want ErrBadVertex", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Query(ctx, []graph.VertexID{0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
	}

	empty, err := s.Query(context.Background(), nil)
	if err != nil || len(empty.Results) != 0 {
		t.Fatalf("empty query: %v, %+v", err, empty)
	}

	s.Close()
	if _, err := s.Query(context.Background(), []graph.VertexID{0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed server: err = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// get and put drive the cache's frontier-at-a-time Probe and Fill one row at
// a time.
func (c *embedCache) get(layer int32, v graph.VertexID, version int64) []float32 {
	rows, _ := c.Probe(layer, []graph.VertexID{v}, version, nil, nil)
	return rows[0]
}

func (c *embedCache) put(layer int32, v graph.VertexID, version int64, row []float32) {
	c.Fill(layer, []graph.VertexID{v}, version, tensor.FromSlice(row, 1, len(row)))
}

// TestEmbedCache unit-tests the LRU and version semantics directly.
func TestEmbedCache(t *testing.T) {
	reg := metrics.NewRegistry()
	c := newEmbedCache(2, reg)
	c.put(0, 1, 1, []float32{1})
	c.put(0, 2, 1, []float32{2})
	if c.get(0, 1, 1) == nil {
		t.Fatal("lost a row within capacity")
	}
	c.put(0, 3, 1, []float32{3}) // evicts vertex 2 (LRU; 1 was just touched)
	if c.get(0, 2, 1) != nil {
		t.Fatal("LRU kept the least recently used row")
	}
	if c.get(0, 1, 1) == nil {
		t.Fatal("LRU evicted the most recently used row")
	}
	if row := c.get(0, 1, 2); row != nil {
		t.Fatal("version bump did not invalidate")
	}
	if c.get(0, 1, 1) != nil {
		t.Fatal("stale row not dropped after version-mismatch probe")
	}
	if got := reg.Counter("serve_cache_evictions_total").Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}

	// Rows handed out stay immutable across overwrites.
	c.put(1, 9, 1, []float32{42})
	row := c.get(1, 9, 1)
	c.put(1, 9, 1, []float32{-1})
	if row[0] != 42 {
		t.Fatal("overwrite mutated a previously returned row")
	}

	// A frontier is probed and filled in one call each: hits and misses line
	// up with the frontier, and a fill larger than the capacity keeps the
	// most recently inserted rows.
	c = newEmbedCache(2, reg)
	c.Fill(0, []graph.VertexID{4, 5, 6}, 1, tensor.FromSlice([]float32{4, 5, 6}, 3, 1))
	rows, miss := c.Probe(0, []graph.VertexID{6, 4, 5}, 1, nil, nil)
	if !slices.Equal(miss, []graph.VertexID{4}) || rows[0][0] != 6 || rows[1] != nil || rows[2][0] != 5 || c.Len() != 2 {
		t.Fatalf("frontier probe after an overfull fill: rows %v, misses %v, %d resident", rows, miss, c.Len())
	}

	// Disabled cache: everything misses, nothing is stored.
	off := newEmbedCache(-1, reg)
	off.put(0, 1, 1, []float32{1})
	if off.get(0, 1, 1) != nil || off.Len() != 0 {
		t.Fatal("disabled cache stored a row")
	}
}

// TestServeHTTP exercises the JSON endpoints through the composed mux.
func TestServeHTTP(t *testing.T) {
	tr, d := trainedGCN(t, 0.03)
	tracer := trace.New(0)
	s, _ := newServer(t, tr, d, Options{Tracer: tracer})
	ts := httptest.NewServer(s.Mux())
	defer ts.Close()

	post := func(body string) (*http.Response, []byte) {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	resp, body := post(`{"vertices":[0,5,9]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %s: %s", resp.Status, body)
	}
	var reply Reply
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatalf("predict reply not JSON: %v", err)
	}
	if len(reply.Results) != 3 || reply.Results[1].Vertex != 5 {
		t.Fatalf("predict reply: %+v", reply)
	}
	whole, err := tr.Predict()
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, &reply, whole)

	if resp, body := post(`{"vertices":[999999]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad vertex: %s: %s", resp.Status, body)
	}
	if resp, body := post(`{nope`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %s: %s", resp.Status, body)
	}
	if resp, err := http.Get(ts.URL + "/v1/predict"); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict: %v %v", err, resp.Status)
	}

	resp2, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var health struct {
		Status       string `json:"status"`
		ModelVersion int64  `json:"model_version"`
		CacheRows    int    `json:"cache_rows"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.ModelVersion != 1 || health.CacheRows == 0 {
		t.Fatalf("healthz: %+v", health)
	}
}

// TestServeSmoke is the end-to-end smoke the Makefile's serve-smoke target
// runs: a real listener, a concurrent query burst over HTTP, then assertions
// that the replies are well-formed JSON and the observability surface shows
// cache hits and serve spans.
func TestServeSmoke(t *testing.T) {
	tr, d := trainedGCN(t, 0.05)
	tracer := trace.New(0)
	s, reg := newServer(t, tr, d, Options{
		BatchSize: 8,
		Tracer:    tracer,
	})
	addr, shutdown, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = shutdown() }()
	base := "http://" + addr

	const N = 32
	var wg sync.WaitGroup
	errs := make(chan error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"vertices":[%d,%d]}`, i%8, 8+i%8) // repeats drive cache hits
			resp, err := http.Post(base+"/v1/predict", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var reply Reply
			if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
				errs <- fmt.Errorf("malformed reply JSON: %w", err)
				return
			}
			if resp.StatusCode != http.StatusOK || len(reply.Results) != 2 {
				errs <- fmt.Errorf("bad reply: %s %+v", resp.Status, reply)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The cache counters are visible through /metrics and show hits.
	resp, err := http.Get(base + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if snap.Counters["serve_cache_hits_total"] == 0 {
		t.Fatalf("no cache hits visible in /metrics: %+v", snap.Counters)
	}
	if snap.Counters["serve_requests_total"] < N {
		t.Fatalf("requests_total = %d, want >= %d", snap.Counters["serve_requests_total"], N)
	}
	if hits := reg.Counter("serve_cache_hits_total").Load(); hits == 0 {
		t.Fatal("registry shows no cache hits")
	}

	// Serve spans are visible through /trace.
	resp2, err := http.Get(base + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp2.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"serve"`)) {
		t.Fatal("no serve spans visible in /trace")
	}
	// So is the per-layer cost of a batch: the layer step's stage spans.
	for _, name := range []string{`"aggregate"`, `"update"`} {
		if !bytes.Contains(buf.Bytes(), []byte(name)) {
			t.Fatalf("no per-layer %s span visible in /trace", name)
		}
	}
}

// TestReplyRowsAreNotShared: every Reply owns its rows. Two requests that
// asked for the same vertex in one batch, and two results of one request
// that names a vertex twice, must each get storage nobody else reads — a
// caller scribbling over its logits corrupts no other answer.
func TestReplyRowsAreNotShared(t *testing.T) {
	tr, d := trainedGCN(t, 0.05)
	s, reg := newServer(t, tr, d, Options{})
	whole, err := tr.Predict()
	if err != nil {
		t.Fatal(err)
	}

	// Two requests naming vertex 7 (one of them twice), made to share a batch.
	release := holdExecutor(t, s)
	queries := [][]graph.VertexID{{7, 3, 7}, {9, 7}}
	replies := make([]*Reply, len(queries))
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if replies[i], err = s.Query(context.Background(), queries[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	waitFor(t, "both requests to queue", func() bool { return len(s.reqCh) == 1 })
	release()
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := reg.Counter("serve_batches_total").Load(); got != 1 {
		t.Fatalf("the two requests ran as %d batches, want one shared batch", got)
	}
	for _, r := range replies[0].Results {
		for j := range r.Logits {
			r.Logits[j] = -12345 // the first caller reuses its reply as scratch
		}
	}
	assertBitIdentical(t, replies[1], whole)

	again, err := s.Query(context.Background(), []graph.VertexID{7, 7})
	if err != nil {
		t.Fatal(err)
	}
	again.Results[0].Logits[0] = -12345
	assertBitIdentical(t, &Reply{Results: again.Results[1:]}, whole)
	// Nor does a reply alias the embedding cache: the cached answer is intact.
	cached, err := s.Query(context.Background(), []graph.VertexID{7})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, cached, whole)
}

// TestResidentFeaturesNeverWrittenOrPooled: the first layer reads
// Options.Features in place, so nothing a batch does may write into the
// matrix or hand its storage to the buffer pool (tensor.Recycle, directly or
// through nn.ReleaseGraph, would leave it unreadable). Three servers share one
// matrix, as the routed benchmark's replicas do, and answer a few hundred
// cold batches concurrently — under `make race` the detector sees any write
// — for each model shape: DNFA (GCN), flat HDG (PinSage) and hierarchical HDG
// (MAGNN). Afterwards the matrix is bitwise what it was.
func TestResidentFeaturesNeverWrittenOrPooled(t *testing.T) {
	reddit := dataset.RedditLike(dataset.Config{Scale: 0.05, Seed: 3})
	imdb := dataset.IMDBLike(dataset.Config{Scale: 0.05, Seed: 2})
	for _, c := range []struct {
		name  string
		d     *dataset.Dataset
		model func(d *dataset.Dataset) *nau.Model
	}{
		{"gcn", reddit, func(d *dataset.Dataset) *nau.Model {
			return models.NewGCN(d.FeatureDim(), 8, d.NumClasses, tensor.NewRNG(1))
		}},
		{"pinsage", reddit, func(d *dataset.Dataset) *nau.Model {
			return models.NewPinSage(d.FeatureDim(), 8, d.NumClasses,
				models.PinSageConfig{NumWalks: 3, Hops: 2, TopK: 3}, tensor.NewRNG(3))
		}},
		{"magnn", imdb, func(d *dataset.Dataset) *nau.Model {
			return models.NewMAGNN(d.FeatureDim(), 8, d.NumClasses, d.Metapaths,
				models.MAGNNConfig{MaxInstances: 6}, tensor.NewRNG(2))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			feats := c.d.Features
			before := feats.Clone()
			const replicas, batches = 3, 100
			var wg sync.WaitGroup
			for r := 0; r < replicas; r++ {
				s, err := New(Options{Model: c.model(c.d), Graph: c.d.Graph, Features: feats, CacheCapacity: -1})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				qs := uniformQueries(c.d.Graph.NumVertices(), 4, batches)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, q := range qs {
						if _, err := s.Query(context.Background(), q); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if feats.Data() == nil || feats.Rows() != before.Rows() || feats.Cols() != before.Cols() {
				t.Fatal("the resident feature matrix went back to the buffer pool")
			}
			for i, x := range feats.Data() {
				if math.Float32bits(x) != math.Float32bits(before.Data()[i]) {
					t.Fatalf("feature element %d changed: %v, was %v", i, x, before.Data()[i])
				}
			}
		})
	}
}
