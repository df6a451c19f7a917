package nau

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// walkLayer is dummyLayer with PinSage's selection — the top 10 vertices of
// 10 random walks of 3 hops — through the appending sink.
type walkLayer struct{ dummyLayer }

func newWalkLayer(in, out int, act bool, rng *tensor.RNG) *walkLayer {
	return &walkLayer{*newDummyLayer(in, out, act, rng)}
}

func (l *walkLayer) Selector() Selector       { return RandomWalkSelector(10, 3, 10) }
func (l *walkLayer) NeighborUDF() NeighborUDF { return l.Selector().UDF() }

// drawingLayer is dummyLayer whose Aggregation draws from ctx.RNG, as a
// dropout would — in every forward, Evaluate's and Predict's included.
type drawingLayer struct{ dummyLayer }

func (l *drawingLayer) Aggregation(ctx *Context, feats *nn.Value) *nn.Value {
	ctx.RNG.Uint64()
	return l.dummyLayer.Aggregation(ctx, feats)
}

// aheadTrainer is a CachePerEpoch trainer over a graph with hubs, sinks and
// self-loops, so that every epoch's walks differ.
func aheadTrainer(first func(in, out int, act bool, rng *tensor.RNG) Layer) *Trainer {
	const n = 300
	rng := tensor.NewRNG(50)
	feats := tensor.RandN(rng, 1, n, 4)
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i % 2)
		feats.Set(feats.At(i, int(labels[i]))+2, i, int(labels[i]))
	}
	m := &Model{
		Name:   "ahead",
		Layers: []Layer{first(4, 8, true, rng), newDummyLayer(8, 2, false, rng)},
		Cache:  CachePerEpoch,
	}
	return NewTrainerWith(m, TrainerOptions{Graph: trickyGraph(n, 7), Features: feats, Labels: labels, Seed: 51})
}

// requireReplayedHDG fails unless the HDG tr trained its last epoch on stores
// exactly selectLayer's arrays at EpochSeed(51, epoch) — the synchronous
// path's selection of that epoch.
func requireReplayedHDG(t *testing.T, tr *Trainer, epoch int) {
	t.Helper()
	want, err := selectLayer(tr.Graph, tr.Model.Layers[0], tr.prog.Roots, EpochSeed(51, epoch), 1, new([]*arena), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.prog.Ctx.HDG
	if !slices.Equal(got.Roots, want.Roots) || !slices.Equal(got.InstOffset, want.InstOffset) ||
		!slices.Equal(got.LeafOffset, want.LeafOffset) || (got.LeafOffset == nil) != (want.LeafOffset == nil) ||
		!slices.Equal(got.LeafIDs, want.LeafIDs) {
		t.Fatalf("epoch %d's HDG differs from a synchronous selection at its seed", epoch)
	}
}

// requireGoroutinesSettle fails unless the goroutine count comes back to at
// most n: a goroutine that has signalled its WaitGroup may take a moment to
// exit, one that outlives the call never does.
func requireGoroutinesSettle(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the epoch, %d before", runtime.NumGoroutine(), n)
		}
		runtime.Gosched()
	}
}

// TestEpochAheadSelectionMatchesSynchronous: each epoch e of a CachePerEpoch
// model trains on the HDG a synchronous selection at EpochSeed(seed, e)
// builds, whether it was selected ahead during the last epoch or here, and
// selection leaves the RNG where the layers' own draws put it. The ahead HDG
// is adopted whenever it was selected at the seed and over the graph of the
// epoch that runs — Evaluate, Predict and HDG() between epochs, a layer that
// draws from ctx.RNG in training and in Evaluate alike — and dropped after a
// LoadCheckpoint to an earlier epoch or a swapped graph. No goroutine outlives
// an Epoch call. Kernel parallelism 1 and 3 fan the ahead selection out over
// one and two workers.
func TestEpochAheadSelectionMatchesSynchronous(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	dummy := func(in, out int, act bool, rng *tensor.RNG) Layer { return newDummyLayer(in, out, act, rng) }
	walk := func(in, out int, act bool, rng *tensor.RNG) Layer { return newWalkLayer(in, out, act, rng) }
	drawing := func(in, out int, act bool, rng *tensor.RNG) Layer {
		return &drawingLayer{*newDummyLayer(in, out, act, rng)}
	}
	evaluate := func(t *testing.T, tr *Trainer, _ int) {
		if _, err := tr.Evaluate(nil); err != nil {
			t.Fatal(err)
		}
	}
	const epochs = 6
	var saved string
	var losses []float32
	cases := []struct {
		name    string
		first   func(in, out int, act bool, rng *tensor.RNG) Layer
		draws   int                                    // RNG draws per forward
		between func(t *testing.T, tr *Trainer, i int) // after the i-th Epoch call
		dropped func(i int) bool                       // Epoch calls that reselect
	}{
		{name: "dummy", first: dummy},
		{name: "pinsage", first: walk},
		{name: "pinsage/evaluate-predict-hdg", first: walk, between: func(t *testing.T, tr *Trainer, _ int) {
			evaluate(t, tr, 0)
			if _, err := tr.Predict(); err != nil {
				t.Fatal(err)
			}
			if tr.HDG() == nil {
				t.Fatal("no HDG handed out")
			}
		}},
		{name: "drawing", first: drawing, draws: 1},
		{name: "drawing/evaluate", first: drawing, draws: 1, between: evaluate},
		{name: "pinsage/load-checkpoint", first: walk, between: func(t *testing.T, tr *Trainer, i int) {
			switch i {
			case 1:
				if err := tr.SaveCheckpoint(saved); err != nil {
					t.Fatal(err)
				}
			case 3:
				if err := tr.LoadCheckpoint(saved); err != nil {
					t.Fatal(err)
				}
			}
		}, dropped: func(i int) bool { return i == 4 }},
		{name: "pinsage/swapped-graph", first: walk, between: func(_ *testing.T, tr *Trainer, i int) {
			if i == 2 {
				tr.Graph = trickyGraph(tr.Graph.NumVertices(), 8)
			}
		}, dropped: func(i int) bool { return i == 3 }},
	}
	for _, p := range []int{1, 3} {
		tensor.SetParallelism(p)
		for _, c := range cases {
			t.Run(fmt.Sprintf("p%d/%s", p, c.name), func(t *testing.T) {
				saved, losses = t.TempDir()+"/ck.fgck", nil
				tr := aheadTrainer(c.first)
				for i := range epochs {
					epoch, pending, from, goroutines := tr.CompletedEpochs(), tr.prog.Sel.ahead.h, tr.RNG.State(), runtime.NumGoroutine()
					loss, err := tr.Epoch()
					if err != nil {
						t.Fatal(err)
					}
					losses = append(losses, loss)
					if i > 1 {
						requireGoroutinesSettle(t, goroutines)
					}
					requireReplayedHDG(t, tr, epoch)
					rng := tensor.NewRNG(from)
					for range c.draws {
						rng.Uint64()
					}
					if tr.RNG.State() != rng.State() {
						t.Fatalf("epoch %d left the RNG elsewhere than its layers' draws", epoch)
					}
					if tr.prog.Sel.ahead.h == nil {
						t.Fatalf("epoch %d selected nothing ahead", epoch)
					}
					wantAdopted := i > 0 && (c.dropped == nil || !c.dropped(i))
					if adopted := pending != nil && tr.prog.Ctx.HDG == pending; adopted != wantAdopted {
						t.Fatalf("Epoch call %d (epoch %d): adopted the ahead HDG = %v, want %v", i, epoch, adopted, wantAdopted)
					}
					if c.between != nil {
						c.between(t, tr, i)
					}
				}
				if c.name == "pinsage/load-checkpoint" {
					// Calls 4 and 5 resumed from the state after epoch 1: they
					// train epochs 2 and 3 again.
					for i := 4; i < epochs; i++ {
						if math.Float32bits(losses[i]) != math.Float32bits(losses[i-2]) {
							t.Fatalf("Epoch call %d after the reload: loss %v, call %d's %v", i, losses[i], i-2, losses[i-2])
						}
					}
				}
			})
		}
	}
}
