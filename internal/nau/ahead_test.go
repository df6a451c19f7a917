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
// exactly selectLayer's arrays over seeds replayed from the RNG state from: one
// draw per root, in root order — the synchronous path's seeds.
func requireReplayedHDG(t *testing.T, tr *Trainer, from uint64) {
	t.Helper()
	want, err := selectLayer(tr.Graph, tr.Model.Layers[0], tr.roots, splitSeeds(new([]uint64), tensor.NewRNG(from), len(tr.roots)), 1, new([]*arena), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.cachedHDG
	if !slices.Equal(got.Roots, want.Roots) || !slices.Equal(got.InstOffset, want.InstOffset) ||
		!slices.Equal(got.LeafOffset, want.LeafOffset) || (got.LeafOffset == nil) != (want.LeafOffset == nil) ||
		!slices.Equal(got.LeafIDs, want.LeafIDs) {
		t.Fatal("the epoch's HDG differs from a synchronous selection over the replayed seeds")
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

// TestEpochAheadSelectionMatchesSynchronous: each epoch of a CachePerEpoch
// model trains on the HDG a synchronous selection would build from the RNG
// state the epoch starts at, whether it was selected ahead during the last
// epoch or here, and leaves the RNG n draws (plus what the layers drew)
// further on. The ahead HDG is adopted when nothing drew from the RNG after
// the forward it followed — Evaluate, Predict and HDG() between epochs of a
// model that draws nothing, or a layer drawing during the training forward
// itself — and dropped otherwise: an Evaluate through a layer that draws, a
// LoadCheckpoint, a swapped graph. No goroutine outlives an Epoch call. Kernel
// parallelism 1 and 3 fan the ahead selection out over one and two workers.
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
		draws   int                                        // RNG draws per forward
		between func(t *testing.T, tr *Trainer, epoch int) // after each epoch
		dropped func(epoch int) bool                       // epochs that reselect
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
		{name: "drawing/evaluate", first: drawing, draws: 1, between: evaluate,
			dropped: func(int) bool { return true }},
		{name: "pinsage/load-checkpoint", first: walk, between: func(t *testing.T, tr *Trainer, epoch int) {
			switch epoch {
			case 2:
				if err := tr.SaveCheckpoint(saved); err != nil {
					t.Fatal(err)
				}
			case 4:
				if err := tr.LoadCheckpoint(saved); err != nil {
					t.Fatal(err)
				}
			}
		}, dropped: func(epoch int) bool { return epoch == 5 }},
		{name: "pinsage/swapped-graph", first: walk, between: func(_ *testing.T, tr *Trainer, epoch int) {
			if epoch == 3 {
				tr.Graph = trickyGraph(tr.Graph.NumVertices(), 8)
			}
		}, dropped: func(epoch int) bool { return epoch == 4 }},
	}
	for _, p := range []int{1, 3} {
		tensor.SetParallelism(p)
		for _, c := range cases {
			t.Run(fmt.Sprintf("p%d/%s", p, c.name), func(t *testing.T) {
				saved, losses = t.TempDir()+"/ck.fgck", nil
				tr := aheadTrainer(c.first)
				for e := 1; e <= epochs; e++ {
					pending, from, goroutines := tr.sel.ahead.h, tr.RNG.State(), runtime.NumGoroutine()
					loss, err := tr.Epoch()
					if err != nil {
						t.Fatal(err)
					}
					losses = append(losses, loss)
					if e > 2 {
						requireGoroutinesSettle(t, goroutines)
					}
					requireReplayedHDG(t, tr, from)
					rng := tensor.NewRNG(from)
					for range len(tr.roots) + c.draws {
						rng.Uint64()
					}
					if tr.RNG.State() != rng.State() {
						t.Fatalf("epoch %d left the RNG elsewhere than the synchronous path", e)
					}
					if tr.sel.ahead.h == nil {
						t.Fatalf("epoch %d selected nothing ahead", e)
					}
					wantAdopted := e > 1 && (c.dropped == nil || !c.dropped(e))
					if adopted := pending != nil && tr.cachedHDG == pending; adopted != wantAdopted {
						t.Fatalf("epoch %d: adopted the ahead HDG = %v, want %v", e, adopted, wantAdopted)
					}
					if c.between != nil {
						c.between(t, tr, e)
					}
				}
				if c.name == "pinsage/load-checkpoint" {
					// Epochs 5 and 6 resumed from the state after epoch 2.
					for e := 5; e <= epochs; e++ {
						if math.Float32bits(losses[e-1]) != math.Float32bits(losses[e-3]) {
							t.Fatalf("epoch %d after the reload: loss %v, epoch %d's %v", e, losses[e-1], e-2, losses[e-3])
						}
					}
				}
			})
		}
	}
}
