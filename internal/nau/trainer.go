package nau

import (
	"context"
	"fmt"
	"reflect"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Model is a stack of NAU layers plus the model's HDG cache policy. All
// layers of a model share one neighbor selection (the paper's Discussion in
// §3.2: "a specific layer can directly utilize the results of previous
// NeighborSelection stage").
type Model struct {
	Name   string
	Layers []Layer
	Cache  CachePolicy
}

// Parameters returns all layers' parameters.
func (m *Model) Parameters() []*nn.Value {
	var out []*nn.Value
	for _, l := range m.Layers {
		out = append(out, l.Parameters()...)
	}
	return out
}

// NeedsHDG reports whether the model builds HDGs (INFA/INHA) or uses the
// input graph directly (DNFA).
func (m *Model) NeedsHDG() bool {
	return len(m.Layers) > 0 && m.Layers[0].Schema() != nil
}

// SelectionSeed returns the epoch seed at which every driver of a run seeded
// seed selects the model's HDG for epoch (numbered from 0):
// EpochSeed(seed, epoch), except that a CacheForever model always selects at
// epoch 0 — a resumed run too, so it rebuilds the HDG the uninterrupted run
// kept.
func (m *Model) SelectionSeed(seed uint64, epoch int) uint64 {
	if m.Cache == CacheForever {
		epoch = 0
	}
	return EpochSeed(seed, epoch)
}

// Trainer runs whole-graph single-machine training of a NAU model, timing
// the three NAU stages for the Table-4 breakdown.
type Trainer struct {
	Model *Model
	Graph *graph.Graph
	// Feats is the input feature matrix. It is immutable while the trainer
	// holds it (Context.Input): assign a new tensor to change the features,
	// never write into this one.
	Feats  *tensor.Tensor
	Labels []int32
	Mask   []bool
	Engine *engine.Engine
	Opt    nn.Optimizer
	// RNG is the stream layers that draw (dropout) read as ctx.RNG; it is
	// checkpointed, and neighbor selection never touches it.
	RNG *tensor.RNG

	// Breakdown accumulates stage timings across epochs.
	Breakdown *metrics.Breakdown
	// Tracer records NAU stage spans (select/aggregate/update/backward)
	// with rank 0; nil leaves tracing off at ~1 ns per site.
	Tracer *trace.Tracer

	cachedHDG *hdg.HDG
	hdgUsed   bool // one training epoch has consumed cachedHDG
	ctx       *Context
	epoch     int    // the epoch the next Epoch trains, numbered from 0
	seed      uint64 // TrainerOptions.Seed

	// sel is the selection state kept across epochs (cachedHDG is its
	// context's HDG), over the root list roots.
	sel   Selection
	roots []graph.VertexID
}

// TrainerOptions configures NewTrainerWith. Graph, Features and Labels are
// required for training; every other field has a usable zero value, so
// callers name only what they change instead of threading six positional
// arguments.
type TrainerOptions struct {
	// Graph is the input graph (required).
	Graph *graph.Graph
	// Features is the [vertices, dim] input feature matrix (required). The
	// trainer treats it as immutable (see Trainer.Feats).
	Features *tensor.Tensor
	// Labels holds one class per vertex (required for Epoch/Evaluate).
	Labels []int32
	// TrainMask selects the vertices contributing to the loss; nil trains
	// on every vertex.
	TrainMask []bool
	// Seed seeds neighbor selection — root v of epoch e (numbered from 0) by
	// VertexSeed(Model.SelectionSeed(Seed, e), v), as a cluster rank, the
	// sampler and serving do — and the RNG stream layers draw from (dropout).
	// The zero seed is valid and deterministic like any other.
	Seed uint64
	// Engine overrides the execution engine; nil selects a fresh engine
	// with the HA (full hybrid aggregation) strategy.
	Engine *engine.Engine
	// LearningRate overrides the default Adam learning rate of 0.01.
	LearningRate float32
	// Tracer records NAU stage spans; nil leaves tracing off.
	Tracer *trace.Tracer
}

// NewTrainerWith wires up a trainer from options.
func NewTrainerWith(m *Model, o TrainerOptions) *Trainer {
	eng := o.Engine
	if eng == nil {
		eng = engine.New(engine.StrategyHA)
	}
	lr := o.LearningRate
	if lr == 0 {
		lr = 0.01
	}
	return &Trainer{
		Model:     m,
		Graph:     o.Graph,
		Feats:     o.Features,
		Labels:    o.Labels,
		Mask:      o.TrainMask,
		Engine:    eng,
		Opt:       nn.NewAdam(m.Parameters(), lr),
		RNG:       tensor.NewRNG(o.Seed),
		Breakdown: &metrics.Breakdown{},
		Tracer:    o.Tracer,
		seed:      o.Seed,
	}
}

// CompletedEpochs reports how many training epochs the trainer has run —
// the number of the epoch the next Epoch trains. A resumed trainer continues
// numbering (and selecting) from here.
func (t *Trainer) CompletedEpochs() int { return t.epoch }

// SaveCheckpoint writes the trainer's complete training state — model
// parameters, the optimizer's kind/hyperparameters/state, the epoch
// counter and the RNG stream position — to path atomically (checkpoint
// format v2). A run resumed with LoadCheckpoint takes bit-identical steps
// to one that never stopped.
func (t *Trainer) SaveCheckpoint(path string) error {
	return nn.SaveStateFile(path, &nn.TrainState{
		Params: t.Model.Parameters(),
		Opt:    t.Opt,
		Epoch:  t.epoch,
		RNG:    t.RNG.State(),
		HasRNG: true,
	})
}

// LoadCheckpoint restores training state from path. v2 checkpoints restore
// parameters, optimizer state, the epoch counter and the RNG stream; legacy
// v1 checkpoints restore weights only (the optimizer, epoch counter and RNG
// keep their current values). Any cached HDG is dropped, and the next
// selection is the restored epoch's (Model.SelectionSeed), the one the
// uninterrupted run selected — given a trainer built with the run's Seed.
func (t *Trainer) LoadCheckpoint(path string) error {
	st := &nn.TrainState{Params: t.Model.Parameters(), Opt: t.Opt}
	if err := nn.LoadStateFile(path, st); err != nil {
		return err
	}
	t.epoch = st.Epoch
	if st.HasRNG {
		t.RNG.SetState(st.RNG)
	}
	t.cachedHDG = nil
	t.hdgUsed = false
	if t.ctx != nil {
		t.ctx.InvalidateHDG(nil)
	}
	return nil
}

// ensureHDG makes the trainer's context on first use and runs
// NeighborSelection into it according to the model's cache policy.
func (t *Trainer) ensureHDG() error {
	if t.ctx == nil {
		t.ctx = &Context{Graph: t.Graph, Engine: t.Engine, NumFeatureRows: t.Graph.NumVertices()}
	}
	// A cached HDG is always valid until Epoch invalidates it (the
	// CachePerEpoch policy drops it at the next epoch boundary, not here, so
	// evaluation never rebuilds).
	if !t.Model.NeedsHDG() || t.cachedHDG != nil {
		return nil
	}
	if len(t.roots) != t.Graph.NumVertices() {
		t.roots = AllVertices(t.Graph)
	}
	ctx, layer, epochSeed := t.ctx, t.Model.Layers[0], t.Model.SelectionSeed(t.seed, t.epoch)
	// The HDG selected ahead is this one if it was selected at this epoch's
	// seed over this graph: a LoadCheckpoint to another epoch or a swapped
	// graph drops it, and selection runs here as if there were none.
	if !t.sel.adoptAhead(ctx, epochSeed, t.Graph, layer, len(t.roots)) {
		var err error
		defer t.Tracer.Begin(0, int32(t.epoch), 0, trace.CatStage, "select").End()
		t.Breakdown.Time(metrics.StageNeighborSelection, func() {
			err = t.sel.Select(ctx, t.Graph, layer, t.roots, epochSeed)
		})
		if err != nil {
			return fmt.Errorf("nau: neighbor selection: %w", err)
		}
	}
	t.cachedHDG = ctx.HDG
	return nil
}

// selectAhead starts the next epoch's selection in the background, for Epoch
// to call once its forward has consumed this epoch's HDG; Epoch joins it
// before returning, so nothing runs beside the trainer between calls. Only a
// first layer of pointer type is selected ahead: adoptAhead compares it, and
// a pointer compares without panicking.
func (t *Trainer) selectAhead() {
	if !t.Model.NeedsHDG() || t.Model.Cache != CachePerEpoch || len(t.roots) != t.Graph.NumVertices() ||
		reflect.TypeOf(t.Model.Layers[0]).Kind() != reflect.Pointer {
		return
	}
	next := t.epoch + 1
	t.sel.selectAhead(Probe{Timer: t.Breakdown, Tracer: t.Tracer, Epoch: int32(next)},
		t.Graph, t.Model.Layers[0], t.roots, t.Model.SelectionSeed(t.seed, next))
}

// HDG exposes the cached HDGs (nil for DNFA models), e.g. for the Table-5
// memory accounting. An HDG handed out here is never recycled: the trainer
// will not write a later epoch's HDG over it.
func (t *Trainer) HDG() *hdg.HDG {
	if t.sel.hdgs[1] == t.cachedHDG {
		t.sel.hdgs[1] = nil
	}
	return t.cachedHDG
}

// Forward runs the model over the whole graph and returns the final-layer
// logits, timing Aggregation and Update stages into the breakdown.
func (t *Trainer) Forward(train bool) (*nn.Value, error) {
	return t.ForwardContext(context.Background(), train)
}

// ForwardContext is Forward with cancellation: cancelling ctx aborts the
// pass at the next layer boundary (individual kernels are not interrupted)
// and returns ctx's error. The serving path uses this so an abandoned
// request stops burning compute after at most one layer.
func (t *Trainer) ForwardContext(cctx context.Context, train bool) (*nn.Value, error) {
	if err := cctx.Err(); err != nil {
		return nil, err
	}
	if err := t.ensureHDG(); err != nil {
		return nil, err
	}
	ctx := t.ctx
	ctx.RNG, ctx.Train = t.RNG, train
	probe := Probe{Timer: t.Breakdown, Tracer: t.Tracer, Epoch: int32(t.epoch)}
	feats := ctx.Input(t.Model, t.Feats)
	for li, layer := range t.Model.Layers {
		var err error
		if feats, err = ctx.RunLayer(probe, li, layer, feats, feats.Data.Rows(), cctx.Err); err != nil {
			return nil, err
		}
	}
	return feats, nil
}

// Epoch trains epoch CompletedEpochs() (neighbor selection per cache policy,
// forward, loss, backward, optimizer step) and returns the training loss. On
// a CachePerEpoch model it also selects the next epoch's HDG beside the
// backward pass (selectAhead), and returns only once that has finished.
func (t *Trainer) Epoch() (float32, error) {
	if t.Model.Cache == CachePerEpoch && t.hdgUsed {
		t.cachedHDG = nil // force re-selection for the new epoch
	}
	logits, err := t.Forward(true)
	if err != nil {
		return 0, err
	}
	t.hdgUsed = true
	t.selectAhead()
	defer t.sel.aheadDone.Wait()
	loss := nn.CrossEntropy(logits, t.Labels, t.Mask)
	bspan := t.Tracer.Begin(0, int32(t.epoch), 0, trace.CatStage, "backward")
	defer bspan.End()
	t.Breakdown.Time(metrics.StageBackward, func() {
		t.Opt.ZeroGrad()
		loss.Backward()
		t.Opt.Step()
		// The step is over: every forward buffer of this epoch's graph goes
		// back to the pool for the next epoch to draw. Predict and Evaluate
		// build graphs nobody releases, so they never see a recycled buffer.
		nn.ReleaseGraph(loss)
	})
	t.epoch++
	return loss.Data.At(0, 0), nil
}

// Predict runs inference and returns the final-layer logits for every
// vertex, for downstream tasks (vertex classification, link scoring, ...).
func (t *Trainer) Predict() (*tensor.Tensor, error) {
	return t.PredictContext(context.Background())
}

// PredictContext is Predict with cancellation: cancelling ctx aborts the
// forward pass at the next layer boundary and returns ctx's error.
func (t *Trainer) PredictContext(ctx context.Context) (*tensor.Tensor, error) {
	logits, err := t.ForwardContext(ctx, false)
	if err != nil {
		return nil, err
	}
	return logits.Data, nil
}

// Evaluate returns masked accuracy of the current parameters. A nil mask
// evaluates all vertices.
func (t *Trainer) Evaluate(mask []bool) (float64, error) {
	// Evaluation must not drop the HDG cache; reuse whatever HDGs exist
	// (building if needed).
	logits, err := t.Forward(false)
	if err != nil {
		return 0, err
	}
	return nn.Accuracy(logits.Data, t.Labels, mask), nil
}
