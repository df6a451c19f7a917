package nau

import (
	"fmt"
	"reflect"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Program is one rank's training epoch, written once for every holder: the
// Trainer runs it straight through over all vertices; a cluster worker runs
// it over its partition with itself as the context's BottomAggregator and
// its gradient all-reduce between backward and step; the simulator runs its
// phases one rank at a time and never steps. The phases are Select, Input and
// Layer (Forward is Input, then every Layer), Backward (the loss and its
// backward pass), SelectAhead and Step; Run is all of them in order.
type Program struct {
	Model *Model
	// Ctx is the layers' context over the program's rows; its Graph is what
	// selection reads, its RNG the stream layers draw from.
	Ctx *Context
	// Sel is the selection state kept across epochs: Ctx.HDG is its current
	// HDG, and the one selected ahead waits in it.
	Sel Selection
	// Roots are the vertices the program computes, in row order.
	Roots []graph.VertexID

	// Feats, Labels and Mask are the rows of Roots: the input features
	// (immutable, see Context.Input), the labels and the loss mask (nil:
	// every row); Masked is how many rows the mask selects.
	Feats  *tensor.Tensor
	Labels []int32
	Mask   []bool
	Masked int

	Opt nn.Optimizer
	// Seed is the run seed: epoch e selects at Model.SelectionSeed(Seed, e).
	Seed uint64
	// Epoch is the epoch the next Run trains, numbered from 0; Step
	// advances it.
	Epoch int
	// Probe is where the phases report; its Epoch field is ignored, the
	// phases tag their spans with Epoch.
	Probe Probe
	// Ahead makes Run select the next epoch's HDG beside the backward pass
	// (SelectAhead). The Trainer sets it; a cluster worker does not: at two
	// ranks on one two-CPU host it measured slower (DESIGN.md "Epoch-ahead
	// selection").
	Ahead bool

	selected int // the Epoch Ctx.HDG was selected for
}

// probe is p.Probe tagged with the current epoch.
func (p *Program) probe() Probe {
	pr := p.Probe
	pr.Epoch = int32(p.Epoch)
	return pr
}

// Select runs NeighborSelection into Ctx as the model's cache policy asks:
// never for a DNFA model, once for a CacheForever one, and once per epoch
// otherwise. An HDG selected for this epoch is kept, and the HDG SelectAhead
// built is adopted while it was selected at this epoch's seed over this
// graph, these roots and this first layer (Selection.adoptAhead).
func (p *Program) Select() error {
	m := p.Model
	if !m.NeedsHDG() || p.Ctx.HDG != nil && (m.Cache == CacheForever || p.selected == p.Epoch) {
		return nil
	}
	g, layer, seed := p.Ctx.Graph, m.Layers[0], m.SelectionSeed(p.Seed, p.Epoch)
	if !p.Sel.adoptAhead(p.Ctx, seed, g, layer, p.Roots) {
		pr := p.probe()
		defer pr.Tracer.Begin(pr.Rank, pr.Epoch, 0, trace.CatStage, "select").End()
		var err error
		pr.Timer.Time(metrics.StageNeighborSelection, func() {
			err = p.Sel.Select(p.Ctx, g, layer, p.Roots, seed)
		})
		if err != nil {
			return fmt.Errorf("nau: neighbor selection: %w", err)
		}
	}
	p.selected = p.Epoch
	return nil
}

// Input is the leaf the first layer reads: the rows' features through
// Context.Input.
func (p *Program) Input() *nn.Value { return p.Ctx.Input(p.Model, p.Feats) }

// Layer runs layer l over x, one row per root (Context.RunLayer). cancel,
// when non-nil, is consulted at the layer boundary.
func (p *Program) Layer(l int, x *nn.Value, cancel func() error) (*nn.Value, error) {
	return p.Ctx.RunLayer(p.probe(), l, p.Model.Layers[l], x, nil, cancel)
}

// Forward is Input, then every Layer: the logits of the rows, in training
// mode or not.
func (p *Program) Forward(train bool, cancel func() error) (*nn.Value, error) {
	p.Ctx.Train = train
	h := p.Input()
	for l := range p.Model.Layers {
		var err error
		if h, err = p.Layer(l, h, cancel); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// Backward is the loss of logits over the rows under the mask, and its
// backward pass into zeroed parameter gradients, timed as StageBackward.
func (p *Program) Backward(logits *nn.Value) *nn.Value {
	loss := nn.CrossEntropy(logits, p.Labels, p.Mask)
	pr := p.probe()
	defer pr.Tracer.Begin(pr.Rank, pr.Epoch, 0, trace.CatStage, "backward").End()
	pr.Timer.Time(metrics.StageBackward, func() {
		p.Opt.ZeroGrad()
		loss.Backward()
	})
	return loss
}

// SelectAhead starts the next epoch's selection in the background
// (Selection.selectAhead), for Select to adopt, if Ahead is set; Run calls it
// once the forward has consumed this epoch's HDG and joins it before
// returning. Only a CachePerEpoch model whose first layer is of pointer type
// is selected ahead: adoptAhead compares the layer, and a pointer compares
// without panicking.
func (p *Program) SelectAhead() {
	m := p.Model
	if !p.Ahead || !m.NeedsHDG() || m.Cache != CachePerEpoch || reflect.TypeOf(m.Layers[0]).Kind() != reflect.Pointer {
		return
	}
	pr := p.probe()
	pr.Epoch++
	p.Sel.selectAhead(pr, p.Ctx.Graph, m.Layers[0], p.Roots, m.SelectionSeed(p.Seed, p.Epoch+1))
}

// Step applies the optimizer to the gradients, returns the buffers of loss's
// graph to the pool (Predict and Evaluate build graphs nobody releases, so
// they never see a recycled buffer), timed as StageBackward, and advances
// Epoch.
func (p *Program) Step(loss *nn.Value) {
	p.Probe.Timer.Time(metrics.StageBackward, func() {
		p.Opt.Step()
		nn.ReleaseGraph(loss)
	})
	p.Epoch++
}

// Run trains epoch Epoch straight through — Select, Forward, SelectAhead,
// Backward, sync, Step — and returns the loss. sync, when non-nil, runs
// between backward and step with the rows' loss and Masked, and returns the
// loss to report (a cluster rank's gradient all-reduce); when it fails the
// epoch fails unstepped. The ahead selection has ended when Run returns, on
// every path.
func (p *Program) Run(sync func(loss float32, masked int) (float32, error)) (float32, error) {
	if err := p.Select(); err != nil {
		return 0, err
	}
	logits, err := p.Forward(true, nil)
	if err != nil {
		return 0, err
	}
	p.SelectAhead()
	defer p.Sel.aheadDone.Wait()
	lossV := p.Backward(logits)
	loss := lossV.Data.At(0, 0)
	if sync != nil {
		if loss, err = sync(loss, p.Masked); err != nil {
			return 0, err
		}
	}
	p.Step(lossV)
	return loss, nil
}
