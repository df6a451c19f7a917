package nau

import (
	"errors"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/hdg"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// stepLayer is a DNFA layer whose Update hands back its self rows, so a test
// can see whether RunLayer gathered them. It aggregates twice, as a model
// with levels above the bottom one keeps computing after the first.
type stepLayer struct{ nbrRows int }

func (l *stepLayer) Schema() *hdg.SchemaTree  { return nil }
func (l *stepLayer) NeighborUDF() NeighborUDF { return nil }
func (l *stepLayer) Parameters() []*nn.Value  { return nil }
func (l *stepLayer) Aggregation(ctx *Context, feats *nn.Value) *nn.Value {
	first := ctx.Aggregate(feats, Sum)
	l.nbrRows = first.Data.Rows()
	return nn.Add(first, ctx.Aggregate(feats, Sum))
}
func (l *stepLayer) Update(_ *Context, feats, _ *nn.Value) *nn.Value { return feats }

func TestRunLayerSelfGatherOnlyForBatches(t *testing.T) {
	g := ringGraph(6)
	ctx := &Context{Graph: g, Engine: engine.New(engine.StrategyHA), NumFeatureRows: 6}
	x := nn.Constant(tensor.Ones(6, 2))
	out, err := ctx.RunLayer(Probe{}, 0, &stepLayer{}, x, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out != x {
		t.Fatal("a whole-graph step must hand Update its input rows, not a gathered copy")
	}
	x = nn.Constant(tensor.FromSlice([]float32{0, 1, 2, 3, 4, 5}, 6, 1))
	for _, self := range [][]int32{{0, 1, 2, 3}, {4, 1}} { // a universe prefix, resident rows
		out, err = ctx.RunLayer(Probe{}, 0, &stepLayer{}, x, self, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out == x || out.Data.Rows() != len(self) {
			t.Fatalf("a batch step must gather its %d self rows, got %d rows", len(self), out.Data.Rows())
		}
		for i, r := range self {
			if out.Data.Row(i)[0] != float32(r) {
				t.Fatalf("self rows %v: output row %d reads %v, want input row %d", self, i, out.Data.Row(i), r)
			}
		}
	}
}

func TestRunLayerReturnsHookError(t *testing.T) {
	g := ringGraph(6)
	boom := errors.New("exchange failed")
	hook := &recordingAggregator{err: boom}
	ctx := &Context{Graph: g, Engine: engine.New(engine.StrategyHA), NumFeatureRows: 6, Bottom: hook}
	x := nn.Constant(tensor.Ones(6, 2))
	layer := &stepLayer{}
	if _, err := ctx.RunLayer(Probe{}, 0, layer, x, nil, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the hook's", err)
	}
	if layer.nbrRows != 6 {
		t.Fatalf("a failed hook must still hand the model %d rows, got %d", 6, layer.nbrRows)
	}
	if hook.calls != 1 {
		t.Fatalf("hook called %d times after failing, want 1", hook.calls)
	}
	// The error belongs to the layer that hit it: the next step starts clean.
	hook.err = nil
	if _, err := ctx.RunLayer(Probe{}, 1, layer, x, nil, nil); err != nil {
		t.Fatalf("step after a failed one: %v", err)
	}
}

// bookingAggregator books its own time into the step's timer the way the
// distributed hook does.
type bookingAggregator struct {
	recordingAggregator
	timer *metrics.Breakdown
}

func (b *bookingAggregator) AggregateBottom(adj *engine.Adjacency, feats *nn.Value, op tensor.ReduceOp) (*nn.Value, error) {
	time.Sleep(5 * time.Millisecond)
	b.timer.Add(metrics.StageSync, 5*time.Millisecond)
	return b.recordingAggregator.AggregateBottom(adj, feats, op)
}

func TestRunLayerSubtractsWhatTheHookBooked(t *testing.T) {
	g := ringGraph(6)
	timer := &metrics.Breakdown{}
	ctx := &Context{Graph: g, Engine: engine.New(engine.StrategyHA), NumFeatureRows: 6,
		Bottom: &bookingAggregator{timer: timer}}
	x := nn.Constant(tensor.Ones(6, 2))
	start := time.Now()
	if _, err := ctx.RunLayer(Probe{Timer: timer}, 0, &stepLayer{}, x, nil, nil); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if got := timer.Get(metrics.StageSync); got != 10*time.Millisecond {
		t.Fatalf("sync = %v, want the two hook calls' 10ms", got)
	}
	var total time.Duration
	for _, d := range timer.StageTimes() {
		total += d
	}
	if total > wall {
		t.Fatalf("stages sum to %v over a %v step: hook time was counted twice", total, wall)
	}
}
