// Command serving is the online-inference walkthrough: train a GCN briefly,
// stand up an InferenceServer over the trained model, and demonstrate the
// three things that make the serving path interesting —
//
//  1. micro-batched queries (concurrent requests share one forward pass),
//  2. the versioned embedding cache (repeat queries hit, an UpdateModel
//     invalidates),
//  3. parity with training-side inference: the served logits are
//     bit-identical to a whole-graph Trainer.Predict.
//
// It talks to the server both in-process (srv.Query) and over HTTP.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sync"

	flexgraph "repro"
)

func main() {
	// Train a small model to serve.
	d := flexgraph.RedditLike(flexgraph.DatasetConfig{Scale: 0.1, Seed: 1})
	fmt.Println("dataset:", d.Stats())
	rng := flexgraph.NewRNG(1)
	model := flexgraph.NewGCN(d.FeatureDim(), 32, d.NumClasses, rng)
	tr := flexgraph.NewTrainerWith(model, flexgraph.TrainerOptions{
		Graph:     d.Graph,
		Features:  d.Features,
		Labels:    d.Labels,
		TrainMask: d.TrainMask,
		Seed:      1,
	})
	for epoch := 1; epoch <= 10; epoch++ {
		if _, err := tr.Epoch(); err != nil {
			log.Fatalf("epoch %d: %v", epoch, err)
		}
	}
	acc, err := tr.Evaluate(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained gcn: accuracy %.3f\n\n", acc)

	// Stand up the inference server, with metrics and tracing attached.
	reg := flexgraph.NewMetricsRegistry()
	tracer := flexgraph.NewTracer(0)
	srv, err := flexgraph.NewInferenceServer(flexgraph.ServeOptions{
		Model:    model,
		Graph:    d.Graph,
		Features: d.Features,
		Metrics:  reg,
		Tracer:   tracer,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// 1. Micro-batching: fire concurrent single-vertex queries; what queues
	// while the executor is busy runs as one shared forward pass.
	var wg sync.WaitGroup
	for v := 0; v < 32; v++ {
		wg.Add(1)
		go func(v flexgraph.VertexID) {
			defer wg.Done()
			if _, err := srv.Query(context.Background(), []flexgraph.VertexID{v}); err != nil {
				log.Printf("query %d: %v", v, err)
			}
		}(flexgraph.VertexID(v))
	}
	wg.Wait()
	hits := reg.Counter("serve_cache_hits_total").Load()
	batches := reg.Counter("serve_batches_total").Load()
	fmt.Printf("32 concurrent queries ran as %d micro-batches\n", batches)

	// 2. The embedding cache: re-query the same vertices — the top layer
	// answers straight from cache.
	verts := []flexgraph.VertexID{0, 1, 2, 3, 4, 5, 6, 7}
	if _, err := srv.Query(context.Background(), verts); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repeat query: +%d cache hits (%d rows resident)\n",
		reg.Counter("serve_cache_hits_total").Load()-hits, srv.CacheLen())

	// Updating the model bumps the version and invalidates every cached row.
	if err := srv.UpdateModel(func() error { _, err := tr.Epoch(); return err }); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after UpdateModel: model version %d, next queries recompute\n\n", srv.ModelVersion())

	// 3. Parity: served logits are bit-identical to Trainer.Predict.
	reply, err := srv.Query(context.Background(), verts)
	if err != nil {
		log.Fatal(err)
	}
	whole, err := tr.Predict()
	if err != nil {
		log.Fatal(err)
	}
	exact := true
	for _, r := range reply.Results {
		for j, x := range r.Logits {
			if x != whole.At(int(r.Vertex), j) {
				exact = false
			}
		}
	}
	fmt.Printf("served logits bit-identical to Trainer.Predict: %v\n\n", exact)

	// Over HTTP: the same endpoints flexgraph-serve exposes, sharing one
	// mux with /metrics and /trace.
	addr, shutdown, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = shutdown() }()
	body, _ := json.Marshal(map[string]any{"vertices": []int{0, 7, 42}})
	resp, err := http.Post("http://"+addr+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var httpReply flexgraph.ServeReply
	if err := json.NewDecoder(resp.Body).Decode(&httpReply); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HTTP POST /v1/predict -> %s, model version %d:\n", resp.Status, httpReply.ModelVersion)
	for _, r := range httpReply.Results {
		fmt.Printf("  vertex %4d -> class %d\n", r.Vertex, r.Class)
	}
}
