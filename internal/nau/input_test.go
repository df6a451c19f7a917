package nau

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// dnfaModel is a model whose dependency structure is the input graph: what
// Context.Input keeps an aggregate for.
func dnfaModel() *Model { return &Model{Name: "dnfa", Layers: []Layer{&stepLayer{}}} }

// skewGraph is a small graph with empty, single-edge and many-edge
// destinations, so sum, mean and max each see their corner rows.
func skewGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	rng := tensor.NewRNG(7)
	for v := 1; v < n; v++ {
		for e := 0; e < v%5; e++ {
			b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(v))
		}
	}
	for v := 0; v < n; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID(n-1))
	}
	return b.Build()
}

func sameBits(a, b *tensor.Tensor) bool {
	ad, bd := a.Data(), b.Data()
	if len(ad) != len(bd) {
		return false
	}
	for i := range ad {
		if math.Float32bits(ad[i]) != math.Float32bits(bd[i]) {
			return false
		}
	}
	return true
}

// TestKeptBottomAggregateMatchesRecompute holds the kept aggregate to a fresh
// one bit for bit, for every reduction under every strategy, across steps
// that end in nn.ReleaseGraph: the kept result is a leaf, so no step's
// release hands its buffer to the next step's kernels.
func TestKeptBottomAggregateMatchesRecompute(t *testing.T) {
	g := skewGraph(40)
	feats := tensor.RandN(tensor.NewRNG(3), 1, 40, 5)
	w := nn.Param(tensor.RandN(tensor.NewRNG(4), 1, 5, 3))
	for _, strategy := range []engine.Strategy{engine.StrategySA, engine.StrategySAFA, engine.StrategyHA} {
		for _, op := range []tensor.ReduceOp{tensor.ReduceSum, tensor.ReduceMean, tensor.ReduceMax} {
			t.Run(fmt.Sprintf("%v/%v", strategy, op), func(t *testing.T) {
				ctx := &Context{Graph: g, Engine: engine.New(strategy), NumFeatureRows: 40}
				fresh := &Context{Graph: g, Engine: engine.New(strategy), NumFeatureRows: 40}
				want := fresh.AggregateBottom(fresh.GraphAdjacency(), nn.Constant(feats), op).Data
				m := dnfaModel()
				var kept *nn.Value
				for step := 0; step < 4; step++ {
					got := ctx.AggregateBottom(ctx.GraphAdjacency(), ctx.Input(m, feats), op)
					if step == 0 {
						kept = got
					} else if got != kept {
						t.Fatalf("step %d recomputed the aggregate of an unchanged input", step)
					}
					if !sameBits(got.Data, want) {
						t.Fatalf("step %d: kept aggregate differs from a fresh one", step)
					}
					loss := nn.MeanAll(nn.MatMul(got, w))
					loss.Backward()
					nn.ReleaseGraph(loss)
				}
			})
		}
	}
}

// TestKeptBottomAggregateInvalidation counts hook calls: an unchanged input
// over an unchanged level costs one, and each of the things that can change
// what the aggregate reads costs exactly one more.
func TestKeptBottomAggregateInvalidation(t *testing.T) {
	g := skewGraph(24)
	feats := tensor.RandN(tensor.NewRNG(5), 1, 24, 3)
	hook := &recordingAggregator{}
	ctx := &Context{Graph: g, Engine: engine.New(engine.StrategyHA), NumFeatureRows: 24, Bottom: hook}
	m := dnfaModel()
	step := func(x *nn.Value, op tensor.ReduceOp) *nn.Value {
		t.Helper()
		return ctx.AggregateBottom(ctx.GraphAdjacency(), x, op)
	}
	expect := func(calls int, what string) {
		t.Helper()
		if hook.calls != calls {
			t.Fatalf("%s: hook called %d times, want %d", what, hook.calls, calls)
		}
	}

	first := step(ctx.Input(m, feats), tensor.ReduceSum)
	step(ctx.Input(m, feats), tensor.ReduceSum)
	expect(1, "unchanged input")

	// A second, different aggregate of the input is computed every time and
	// leaves the kept one alone.
	step(ctx.Input(m, feats), tensor.ReduceMean)
	step(ctx.Input(m, feats), tensor.ReduceMean)
	expect(3, "second reduction of the input")
	if step(ctx.Input(m, feats), tensor.ReduceSum) != first {
		t.Fatal("a second reduction displaced the kept one")
	}
	expect(3, "kept reduction after the second")

	// A differentiable input and a plain constant over the same tensor are
	// not the declared input: always computed, never kept.
	step(nn.Param(feats), tensor.ReduceSum)
	step(nn.Param(feats), tensor.ReduceSum)
	step(nn.Constant(feats), tensor.ReduceSum)
	expect(6, "inputs that are not the declared leaf")

	// A new input tensor: recomputed, from the new values.
	doubled := feats.Scale(2)
	got := step(ctx.Input(m, doubled), tensor.ReduceSum)
	expect(7, "new input tensor")
	if !sameBits(got.Data, engine.FusedAggregate(ctx.GraphAdjacency(), nn.Constant(doubled), tensor.ReduceSum).Data) {
		t.Fatal("aggregate after a new input tensor was not computed from it")
	}
	step(ctx.Input(m, doubled), tensor.ReduceSum)
	expect(7, "new input tensor, second step")

	ctx.InvalidateHDG(nil)
	step(ctx.Input(m, doubled), tensor.ReduceSum)
	expect(8, "InvalidateHDG")

	ctx.SetGraphAdjacency(engine.FromGraphInEdges(g))
	step(ctx.Input(m, doubled), tensor.ReduceSum)
	expect(9, "SetGraphAdjacency")
	step(ctx.Input(m, doubled), tensor.ReduceSum)
	expect(9, "SetGraphAdjacency, second step")

	// A failed hook keeps nothing: the next step asks again.
	ctx.InvalidateHDG(nil)
	hook.err = errors.New("exchange failed")
	step(ctx.Input(m, doubled), tensor.ReduceSum)
	ctx.err, hook.err = nil, nil
	step(ctx.Input(m, doubled), tensor.ReduceSum)
	expect(11, "step after a failed one")
}

// TestNothingKeptWithoutADeclaredInput covers the paths that can never hit:
// a model that re-selects its HDGs every epoch, and a context whose driver
// never calls Input (store.Forward batches, the serve executor). Neither
// retains a leaf or a result.
func TestNothingKeptWithoutADeclaredInput(t *testing.T) {
	g := skewGraph(24)
	feats := tensor.RandN(tensor.NewRNG(6), 1, 24, 3)
	hook := &recordingAggregator{}
	ctx := &Context{Graph: g, Engine: engine.New(engine.StrategyHA), NumFeatureRows: 24, Bottom: hook}
	perEpoch := &Model{Name: "per-epoch", Layers: []Layer{newDummyLayer(3, 2, false, tensor.NewRNG(1))}, Cache: CachePerEpoch}
	for step := 0; step < 3; step++ {
		ctx.AggregateBottom(ctx.GraphAdjacency(), ctx.Input(perEpoch, feats), tensor.ReduceSum)
		ctx.AggregateBottom(ctx.GraphAdjacency(), nn.Constant(feats), tensor.ReduceSum)
	}
	if hook.calls != 6 {
		t.Fatalf("hook called %d times over 6 aggregations that cannot hit", hook.calls)
	}
	if ctx.input != nil || ctx.kept.out != nil {
		t.Fatal("a context with no declared input retained one")
	}
}

// TestTrainerKeptAggregateMatchesRecompute trains two identical trainers,
// one of which is handed a fresh copy of the features before every pass — a
// new input tensor, so it recomputes the first layer's bottom aggregate every
// time. Losses, the mid-run accuracy and the final predictions must agree
// bit for bit, and the per-epoch-HDG trainer must retain nothing.
func TestTrainerKeptAggregateMatchesRecompute(t *testing.T) {
	kept, cold := dummyTrainer(t, CacheForever), dummyTrainer(t, CacheForever)
	refresh := func() { cold.Feats = cold.Feats.Clone() }
	var leaf *nn.Value
	for e := 0; e < 6; e++ {
		refresh()
		a, err := kept.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		b, err := cold.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float32bits(a) != math.Float32bits(b) {
			t.Fatalf("epoch %d: loss %v with the kept aggregate, %v recomputed", e+1, a, b)
		}
		if e == 0 {
			leaf = kept.prog.Ctx.kept.out
		} else if kept.prog.Ctx.kept.out != leaf || leaf == nil {
			t.Fatalf("epoch %d: the trainer refilled (or never kept) its bottom aggregate", e+1)
		}
		if e == 2 {
			refresh()
			accA, _ := kept.Evaluate(nil)
			accB, _ := cold.Evaluate(nil)
			if accA != accB {
				t.Fatalf("mid-run accuracy %v with the kept aggregate, %v recomputed", accA, accB)
			}
		}
	}
	refresh()
	pa, err := kept.Predict()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := cold.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(pa, pb) {
		t.Fatal("Predict after training differs between the kept and the recomputed aggregate")
	}

	perEpoch := dummyTrainer(t, CachePerEpoch)
	for e := 0; e < 3; e++ {
		if _, err := perEpoch.Epoch(); err != nil {
			t.Fatal(err)
		}
	}
	if perEpoch.prog.Ctx.input != nil || perEpoch.prog.Ctx.kept.out != nil {
		t.Fatal("a trainer that re-selects its HDGs every epoch retained an aggregate")
	}
}
