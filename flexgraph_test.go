package flexgraph

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
)

// TestPublicAPIQuickstart exercises the documented quickstart flow through
// the public API only.
func TestPublicAPIQuickstart(t *testing.T) {
	d := RedditLike(DatasetConfig{Scale: 0.03, Seed: 1})
	rng := NewRNG(1)
	model := NewGCN(d.FeatureDim(), 16, d.NumClasses, rng)
	tr := NewTrainerWith(model, TrainerOptions{
		Graph:     d.Graph,
		Features:  d.Features,
		Labels:    d.Labels,
		TrainMask: d.TrainMask,
		Seed:      1,
	})
	var first, last float32
	for epoch := 0; epoch < 12; epoch++ {
		loss, err := tr.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		if epoch == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
	acc, err := tr.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if acc <= 1.0/float64(d.NumClasses) {
		t.Fatalf("accuracy %v at or below chance", acc)
	}
}

// TestPublicAPIDistributed exercises the distributed entry point.
func TestPublicAPIDistributed(t *testing.T) {
	d := FB91Like(DatasetConfig{Scale: 0.02, Seed: 2})
	factory := func(rng *RNG) *Model {
		return NewGCN(d.FeatureDim(), 8, d.NumClasses, rng)
	}
	res, err := TrainDistributed(ClusterConfig{
		NumWorkers: 2, Pipeline: true, Epochs: 3, Seed: 3,
	}, d, factory)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != 3 {
		t.Fatalf("losses = %v", res.Losses)
	}
}

// TestPublicAPICheckpointAndDatasetIO exercises persistence helpers.
func TestPublicAPICheckpointAndDatasetIO(t *testing.T) {
	dir := t.TempDir()
	d := IMDBLike(DatasetConfig{Scale: 0.05, Seed: 6})
	dsPath := filepath.Join(dir, "d.fgds")
	if err := d.Save(dsPath); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDataset(dsPath)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Graph.NumEdges() != d.Graph.NumEdges() {
		t.Fatal("dataset IO mismatch")
	}

	// Train → serve hand-off: the trainer writes the v2 state, a fresh
	// replica reads its parameters back.
	newModel := func() *Model {
		return NewMAGNN(d.FeatureDim(), 8, d.NumClasses, d.Metapaths, MAGNNConfig{MaxInstances: 4}, NewRNG(6))
	}
	tr := NewTrainerWith(newModel(), TrainerOptions{
		Graph: d.Graph, Features: d.Features, Labels: d.Labels, TrainMask: d.TrainMask, Seed: 6,
	})
	if _, err := tr.Epoch(); err != nil {
		t.Fatal(err)
	}
	ckPath := filepath.Join(dir, "m.fgck")
	if err := tr.SaveCheckpoint(ckPath); err != nil {
		t.Fatal(err)
	}
	replica := newModel()
	if err := LoadCheckpoint(ckPath, replica.Parameters()); err != nil {
		t.Fatal(err)
	}
	for i, p := range replica.Parameters() {
		want := tr.Model.Parameters()[i].Data.Data()
		for j, x := range p.Data.Data() {
			if x != want[j] {
				t.Fatalf("param %d[%d]: loaded %v, trained %v", i, j, x, want[j])
			}
		}
	}
}

// TestPublicAPIServing exercises the inference-serving surface end to end
// through the root package: train briefly, serve, and check parity with
// Predict plus context cancellation on both paths.
func TestPublicAPIServing(t *testing.T) {
	d := RedditLike(DatasetConfig{Scale: 0.03, Seed: 8})
	model := NewGCN(d.FeatureDim(), 8, d.NumClasses, NewRNG(8))
	tr := NewTrainerWith(model, TrainerOptions{
		Graph: d.Graph, Features: d.Features, Labels: d.Labels,
		TrainMask: d.TrainMask, Seed: 8,
	})
	for epoch := 0; epoch < 3; epoch++ {
		if _, err := tr.Epoch(); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := NewInferenceServer(ServeOptions{
		Model: model, Graph: d.Graph, Features: d.Features,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reply, err := srv.Query(context.Background(), []VertexID{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := tr.Predict()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reply.Results {
		for j, x := range r.Logits {
			if want := whole.At(int(r.Vertex), j); x != want {
				t.Fatalf("vertex %d logit %d: served %v != Predict %v", r.Vertex, j, x, want)
			}
		}
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Query(cancelled, []VertexID{0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Query with cancelled ctx: %v", err)
	}
	if _, err := tr.PredictContext(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("PredictContext with cancelled ctx: %v", err)
	}
}

// TestPublicAPIPartitioners exercises the balancing surface.
func TestPublicAPIPartitioners(t *testing.T) {
	d, err := DatasetByName("twitter", DatasetConfig{Scale: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	n := d.Graph.NumVertices()
	cost := make([]float64, n)
	for v := 0; v < n; v++ {
		cost[v] = 1 + float64(d.Graph.OutDegree(VertexID(v)))
	}
	hash := HashPartition(n, 4)
	adb := DefaultADB().Rebalance(d.Graph, hash, cost)
	for _, p := range []*Partitioning{hash, adb} {
		if len(p.Assign) != n {
			t.Fatal("partitioning does not cover the graph")
		}
	}
}
