package models

import (
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hdg"
	"repro/internal/nau"
	"repro/internal/tensor"
)

func gcnTrainer(scale float64) *nau.Trainer {
	d := dataset.RedditLike(dataset.Config{Scale: scale, Seed: 1})
	m := NewGCN(d.FeatureDim(), 64, d.NumClasses, tensor.NewRNG(3))
	return nau.NewTrainerWith(m, nau.TrainerOptions{
		Graph: d.Graph, Features: d.Features, Labels: d.Labels, TrainMask: d.TrainMask, Seed: 1,
	})
}

func magnnTrainer(scale float64) *nau.Trainer {
	d := dataset.IMDBLike(dataset.Config{Scale: scale, Seed: 1})
	m := NewMAGNN(d.FeatureDim(), 64, d.NumClasses, d.Metapaths, MAGNNConfig{MaxInstances: 20}, tensor.NewRNG(3))
	return nau.NewTrainerWith(m, nau.TrainerOptions{
		Graph: d.Graph, Features: d.Features, Labels: d.Labels, TrainMask: d.TrainMask, Seed: 1,
	})
}

// TestSteadyStateEpochAllocatesOParams: once the pools are warm, an epoch
// allocates a small fixed number of objects and bytes — tensor headers,
// closures, the tape — and nothing proportional to the vertex count: every
// [V, ·] buffer of the forward pass, the backward pass and the loss is drawn
// from the pool and returned when the step ends (nn.ReleaseGraph). The bounds
// are the same at 1200 and at 6000 vertices for GCN, and for MAGNN — whose
// [instances, ·] buffers at the upper HDG levels outnumber its vertices
// twenty to one — at IMDB×0.3 and ×1.2 (about 14 000 and 56 000 instances).
func TestSteadyStateEpochAllocatesOParams(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	// One P and no collection while counting: sync.Pool keeps a private slot
	// per P and is emptied by two collections, so otherwise the count depends
	// on which P the test goroutine happens to run on and on when the dataset
	// generator's garbage gets collected.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// MAGNN's two layers build about twice the nodes GCN's do (scorer, tanh,
	// segment attention and the schema reduction on top of aggregate + Linear).
	const maxBytes = 32 << 10
	for _, c := range []struct {
		model      string
		trainer    func(scale float64) *nau.Trainer
		scale      float64
		maxObjects float64
	}{
		{"GCN", gcnTrainer, 0.3, 200}, {"GCN", gcnTrainer, 1.5, 200},
		{"MAGNN", magnnTrainer, 0.3, 400}, {"MAGNN", magnnTrainer, 1.2, 400},
	} {
		tr := c.trainer(c.scale)
		epoch := func() {
			if _, err := tr.Epoch(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			epoch()
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			epoch()
		}
		runtime.ReadMemStats(&after)
		objects := float64(after.Mallocs-before.Mallocs) / runs
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		v := tr.Graph.NumVertices()
		t.Logf("%s V=%d: %.0f objects, %d bytes per epoch", c.model, v, objects, bytes)
		if objects > c.maxObjects || bytes > maxBytes {
			t.Fatalf("%s V=%d: steady-state epoch allocates %.0f objects / %d bytes, budget %.0f / %d",
				c.model, v, objects, bytes, c.maxObjects, maxBytes)
		}
	}
}

func pinsageTrainer(scale float64) *nau.Trainer {
	d := dataset.TwitterLike(dataset.Config{Scale: scale, Seed: 1, FeatureDim: 16})
	m := NewPinSage(d.FeatureDim(), 16, d.NumClasses, DefaultPinSageConfig(), tensor.NewRNG(3))
	return nau.NewTrainerWith(m, nau.TrainerOptions{
		Graph: d.Graph, Features: d.Features, Labels: d.Labels, TrainMask: d.TrainMask, Seed: 1,
	})
}

// TestSteadyStatePinSageEpochAllocatesOParams is the INFA twin of
// TestSteadyStateEpochAllocatesOParams: a PinSage epoch re-runs neighbor
// selection over every vertex, and once warm that costs nothing
// proportional to the vertex count either — the walks run in the trainer's
// arenas, the HDG is written over the one two epochs old, and the flat
// level's adjacency, reverse view and bucket plans are refilled in place.
// One budget at TwitterLike ×0.25 and ×1 (3 000 and 12 000 vertices).
func TestSteadyStatePinSageEpochAllocatesOParams(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const maxObjects, maxBytes = 300, 64 << 10
	for _, scale := range []float64{0.25, 1} {
		tr := pinsageTrainer(scale)
		epoch := func() {
			if _, err := tr.Epoch(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			epoch()
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			epoch()
		}
		runtime.ReadMemStats(&after)
		objects := float64(after.Mallocs-before.Mallocs) / runs
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		v := tr.Graph.NumVertices()
		t.Logf("PinSage V=%d: %.0f objects, %d bytes per epoch", v, objects, bytes)
		if objects > maxObjects || bytes > maxBytes {
			t.Fatalf("PinSage V=%d: steady-state epoch allocates %.0f objects / %d bytes, budget %d / %d",
				v, objects, bytes, maxObjects, maxBytes)
		}
	}
}

// TestHDGHandedOutIsNotRecycled: the trainer writes each epoch's HDG over
// the storage of the one two epochs old — but never over an HDG it handed
// out through HDG(), and never into a Predict result. Both must read the
// same, bit for bit, after three more epochs; and the epochs themselves must
// equal a twin trainer's that nobody asked for its HDG.
func TestHDGHandedOutIsNotRecycled(t *testing.T) {
	snapshot := func(h *hdg.HDG) [][]int32 {
		return [][]int32{slices.Clone(h.Roots), slices.Clone(h.InstOffset), slices.Clone(h.LeafOffset), slices.Clone(h.LeafIDs)}
	}
	tr, twin := pinsageTrainer(0.25), pinsageTrainer(0.25)
	var h *hdg.HDG
	var want [][]int32
	var logits *tensor.Tensor
	var wantLogits []float32
	for e := 1; e <= 6; e++ {
		l, err := tr.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		lt, err := twin.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float32bits(l) != math.Float32bits(lt) {
			t.Fatalf("epoch %d: loss %v, twin %v", e, l, lt)
		}
		if e == 3 { // both HDG buffers are in use by now
			h = tr.HDG()
			want = snapshot(h)
			if logits, err = tr.Predict(); err != nil {
				t.Fatal(err)
			}
			wantLogits = slices.Clone(logits.Data())
		}
	}
	for i, a := range snapshot(h) {
		if !slices.Equal(a, want[i]) {
			t.Fatalf("HDG array %d changed after it was handed out", i)
		}
	}
	if !slices.Equal(logits.Data(), wantLogits) {
		t.Fatal("Predict's logits changed under later epochs")
	}
}

// TestPredictAfterRecycledEpochs: Predict builds a graph nobody releases, so
// it must never read a buffer an epoch recycled — and the epochs themselves
// must compute on recycled buffers exactly what they compute on fresh ones.
// The twin trainer runs with pooling off (every buffer a fresh allocation,
// Recycle a no-op); losses and logits must agree bit for bit.
func TestPredictAfterRecycledEpochs(t *testing.T) {
	run := func(pooling bool) ([]float32, *tensor.Tensor) {
		tensor.SetBufferPooling(pooling)
		defer tensor.SetBufferPooling(true)
		tr := gcnTrainer(0.3)
		var losses []float32
		for i := 0; i < 4; i++ {
			l, err := tr.Epoch()
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, l)
		}
		p1, err := tr.Predict()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Epoch(); err != nil { // recycles; must not touch p1
			t.Fatal(err)
		}
		if p1.Data() == nil {
			t.Fatal("Predict's logits were recycled by a later epoch")
		}
		return losses, p1
	}
	wantLoss, wantLogits := run(false)
	gotLoss, gotLogits := run(true)
	for i := range wantLoss {
		if math.Float32bits(wantLoss[i]) != math.Float32bits(gotLoss[i]) {
			t.Fatalf("epoch %d: loss %v on recycled buffers, %v on fresh ones", i+1, gotLoss[i], wantLoss[i])
		}
	}
	wd, gd := wantLogits.Data(), gotLogits.Data()
	for i := range wd {
		if math.Float32bits(wd[i]) != math.Float32bits(gd[i]) {
			t.Fatalf("logit %d: %v on recycled buffers, %v on fresh ones", i, gd[i], wd[i])
		}
	}
}
