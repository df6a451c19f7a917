package nau

import (
	"context"

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

// Trainer runs whole-graph single-machine training of a NAU model — a
// Program over every vertex, run straight through — timing the three NAU
// stages for the Table-4 breakdown.
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

	// prog is the trainer's program; program() copies the fields above into
	// it before every use, so a caller may replace any of them between calls.
	prog Program
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
		prog:      Program{Seed: o.Seed, Ahead: true},
	}
}

// program returns the trainer's program over every vertex of Graph, with the
// trainer's current fields in it.
func (t *Trainer) program() *Program {
	p := &t.prog
	if p.Ctx == nil {
		p.Ctx = &Context{}
	}
	n := t.Graph.NumVertices()
	p.Ctx.Graph, p.Ctx.Engine, p.Ctx.RNG, p.Ctx.NumFeatureRows = t.Graph, t.Engine, t.RNG, n
	if len(p.Roots) != n {
		p.Roots = AllVertices(t.Graph)
	}
	p.Model, p.Feats, p.Labels, p.Mask, p.Opt = t.Model, t.Feats, t.Labels, t.Mask, t.Opt
	p.Probe = Probe{Timer: t.Breakdown, Tracer: t.Tracer}
	return p
}

// CompletedEpochs reports how many training epochs the trainer has run —
// the number of the epoch the next Epoch trains. A resumed trainer continues
// numbering (and selecting) from here.
func (t *Trainer) CompletedEpochs() int { return t.prog.Epoch }

// SaveCheckpoint writes the trainer's complete training state — model
// parameters, the optimizer's kind/hyperparameters/state, the epoch
// counter and the RNG stream position — to path atomically (checkpoint
// format v2). A run resumed with LoadCheckpoint takes bit-identical steps
// to one that never stopped.
func (t *Trainer) SaveCheckpoint(path string) error {
	return nn.SaveStateFile(path, &nn.TrainState{
		Params: t.Model.Parameters(),
		Opt:    t.Opt,
		Epoch:  t.prog.Epoch,
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
	st := &nn.TrainState{Params: t.Model.Parameters(), Opt: t.Opt, Epoch: t.prog.Epoch}
	if err := nn.LoadStateFile(path, st); err != nil {
		return err
	}
	t.prog.Epoch = st.Epoch
	if st.HasRNG {
		t.RNG.SetState(st.RNG)
	}
	if t.prog.Ctx != nil {
		t.prog.Ctx.InvalidateHDG(nil)
	}
	return nil
}

// HDG exposes the cached HDGs (nil for DNFA models), e.g. for the Table-5
// memory accounting. An HDG handed out here is never recycled: the trainer
// will not write a later epoch's HDG over it.
func (t *Trainer) HDG() *hdg.HDG {
	if t.prog.Ctx == nil {
		return nil
	}
	h := t.prog.Ctx.HDG
	if t.prog.Sel.hdgs[1] == h {
		t.prog.Sel.hdgs[1] = nil
	}
	return h
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
	p := t.program()
	// The HDG an epoch trained on stays until the next epoch selects: a
	// forward between epochs selects only if there is none yet.
	if p.Ctx.HDG == nil {
		if err := p.Select(); err != nil {
			return nil, err
		}
	}
	return p.Forward(train, cctx.Err)
}

// Epoch trains epoch CompletedEpochs() (neighbor selection per cache policy,
// forward, loss, backward, optimizer step) and returns the training loss. On
// a CachePerEpoch model it also selects the next epoch's HDG beside the
// backward pass (Program.SelectAhead), and returns only once that has
// finished.
func (t *Trainer) Epoch() (float32, error) { return t.program().Run(nil) }

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
