package nau

import (
	"os"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// resumeTrainer builds a fresh deterministic trainer; calling it twice with
// the same arguments simulates two independent processes starting from the
// same seed. walk gives the first layer PinSage's selection over a graph
// whose walks differ between epochs; a nil newOpt keeps the default Adam.
func resumeTrainer(cache CachePolicy, newOpt func([]*nn.Value) nn.Optimizer, walk bool) *Trainer {
	g := ringGraph(32)
	rng := tensor.NewRNG(50)
	var first Layer = newDummyLayer(4, 8, true, rng)
	if walk {
		g, first = trickyGraph(32, 5), newWalkLayer(4, 8, true, rng)
	}
	feats := tensor.RandN(rng, 1, 32, 4)
	labels := make([]int32, 32)
	for i := range labels {
		labels[i] = int32(i / 16)
		feats.Set(feats.At(i, int(labels[i]))+2, i, int(labels[i]))
	}
	m := &Model{
		Name:   "dummy",
		Layers: []Layer{first, newDummyLayer(8, 2, false, rng)},
		Cache:  cache,
	}
	tr := NewTrainerWith(m, TrainerOptions{Graph: g, Features: feats, Labels: labels, Seed: 51})
	if newOpt != nil {
		tr.Opt = newOpt(m.Parameters())
	}
	return tr
}

// TestTrainerResumeParity is the single-machine resume guarantee: N epochs
// uninterrupted vs k epochs + checkpoint + a FRESH trainer restored from the
// file + N−k more epochs must produce bit-identical per-epoch losses and
// final parameters. Covered for both optimizers and both cache policies, and
// for PinSage's selection: per epoch, whose next HDG each epoch selects ahead
// (the restored trainer has none and selects its first one itself), and
// cached forever, whose restored trainer must rebuild the HDG the
// uninterrupted run selected at epoch 0, not one of the restored epoch.
func TestTrainerResumeParity(t *testing.T) {
	const split, total = 3, 6
	adam := func(p []*nn.Value) nn.Optimizer { return nn.NewAdam(p, 0.02) }
	sgd := func(p []*nn.Value) nn.Optimizer { return nn.NewSGD(p, 0.1) }
	cases := []struct {
		name   string
		cache  CachePolicy
		newOpt func([]*nn.Value) nn.Optimizer
		walk   bool
	}{
		{"adam/per-epoch", CachePerEpoch, adam, false},
		{"adam/forever", CacheForever, adam, false},
		{"sgd/per-epoch", CachePerEpoch, sgd, false},
		{"sgd/forever", CacheForever, sgd, false},
		{"adam/pinsage", CachePerEpoch, adam, true},
		{"adam/pinsage-forever", CacheForever, adam, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Reference: uninterrupted run.
			ref := resumeTrainer(tc.cache, tc.newOpt, tc.walk)
			var refLosses []float32
			for e := 0; e < total; e++ {
				loss, err := ref.Epoch()
				if err != nil {
					t.Fatal(err)
				}
				refLosses = append(refLosses, loss)
			}

			// Interrupted run: k epochs, checkpoint, then a fresh trainer
			// (fresh process) restores and finishes.
			path := t.TempDir() + "/resume.fgck"
			first := resumeTrainer(tc.cache, tc.newOpt, tc.walk)
			for e := 0; e < split; e++ {
				loss, err := first.Epoch()
				if err != nil {
					t.Fatal(err)
				}
				if loss != refLosses[e] {
					t.Fatalf("pre-checkpoint epoch %d: loss %v != reference %v", e+1, loss, refLosses[e])
				}
			}
			if err := first.SaveCheckpoint(path); err != nil {
				t.Fatal(err)
			}

			second := resumeTrainer(tc.cache, tc.newOpt, tc.walk)
			if err := second.LoadCheckpoint(path); err != nil {
				t.Fatal(err)
			}
			if got := second.CompletedEpochs(); got != split {
				t.Fatalf("CompletedEpochs after resume: got %d, want %d", got, split)
			}
			for e := split; e < total; e++ {
				loss, err := second.Epoch()
				if err != nil {
					t.Fatal(err)
				}
				if loss != refLosses[e] {
					t.Fatalf("resumed epoch %d: loss %v != reference %v", e+1, loss, refLosses[e])
				}
			}
			if !nn.ParamsEqual(second.Model.Parameters(), ref.Model.Parameters()) {
				t.Fatal("final parameters diverged after resume")
			}
		})
	}
}

// TestTrainerResumeRejectsWrongModel: restoring a checkpoint into a trainer
// whose model has different shapes must fail with a typed error, not corrupt
// the weights.
func TestTrainerResumeRejectsWrongModel(t *testing.T) {
	tr := resumeTrainer(CacheForever, nil, false)
	if _, err := tr.Epoch(); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/m.fgck"
	if err := tr.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	g := ringGraph(16)
	rng := tensor.NewRNG(1)
	other := &Model{
		Name:   "other",
		Layers: []Layer{newDummyLayer(4, 5, true, rng), newDummyLayer(5, 2, false, rng)},
	}
	wrong := NewTrainerWith(other, TrainerOptions{
		Graph:    g,
		Features: tensor.RandN(rng, 1, 16, 4),
		Labels:   make([]int32, 16),
		Seed:     2,
	})
	if err := wrong.LoadCheckpoint(path); err == nil {
		t.Fatal("mismatched model resumed successfully")
	}
	if got := wrong.CompletedEpochs(); got != 0 {
		t.Fatalf("failed resume advanced the epoch counter to %d", got)
	}
}

// TestTrainerV1CheckpointKeepsEpoch: a legacy v1 file restores weights only,
// so a trainer that loads one keeps its epoch counter, and its next epoch
// selects at that epoch's seed, not epoch 0's.
func TestTrainerV1CheckpointKeepsEpoch(t *testing.T) {
	const epochs = 3
	tr := resumeTrainer(CachePerEpoch, nil, true)
	for range epochs {
		if _, err := tr.Epoch(); err != nil {
			t.Fatal(err)
		}
	}
	path := t.TempDir() + "/v1.fgck"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.SaveParams(f, tr.Model.Parameters()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if got := tr.CompletedEpochs(); got != epochs {
		t.Fatalf("CompletedEpochs after a v1 load: %d, want %d", got, epochs)
	}
	if _, err := tr.Epoch(); err != nil {
		t.Fatal(err)
	}
	requireReplayedHDG(t, tr, epochs)
}
