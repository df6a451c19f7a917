package nau

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/trace"
)

// Probe says where a layer step reports: stage time into Timer, and
// aggregate/update spans into Tracer tagged (Rank, Epoch). A nil Timer or
// Tracer switches that instrument off; the zero Probe records nothing.
type Probe struct {
	Timer  *metrics.Breakdown
	Tracer *trace.Tracer
	Rank   int32
	Epoch  int32
}

// RunLayer executes one NAU layer — the only place Aggregation and Update
// are called. x holds one row per vertex of the layer's input universe, and
// c describes that universe's dependency structure (the whole graph, one
// partition behind the Bottom hook, or a sampled batch's sub-level the
// caller pointed c at). self lists the input rows of the layer's output
// frontier, one per output row, in order — the Update stage's self features:
// the identity prefix of a batch universe, or the frontier's own rows when a
// batch reads the resident feature matrix. Whole-graph callers pass nil
// (every row is its own output) and pay no self gather.
//
// StageAggregation gets the Aggregation call's time minus whatever the
// Bottom hook itself booked as sync or aggregation while it ran (nothing on
// one machine). A hook failure is returned after Aggregation; cancel, when
// non-nil, is consulted at the layer boundary after Update.
func (c *Context) RunLayer(p Probe, l int, layer Layer, x *nn.Value, self []int32, cancel func() error) (*nn.Value, error) {
	span := p.Tracer.Begin(p.Rank, p.Epoch, int32(l), trace.CatStage, "aggregate")
	before := p.Timer.StageTimes()
	start := time.Now()
	nbr := layer.Aggregation(c, x)
	elapsed := time.Since(start)
	after := p.Timer.StageTimes()
	hooked := (after[metrics.StageSync] - before[metrics.StageSync]) +
		(after[metrics.StageAggregation] - before[metrics.StageAggregation])
	if rest := elapsed - hooked; rest > 0 {
		p.Timer.Add(metrics.StageAggregation, rest)
	}
	span.End()
	if err := c.err; err != nil {
		c.err = nil
		return nil, err
	}

	feats := x
	if self != nil {
		feats = nn.Gather(x, self)
	}
	span = p.Tracer.Begin(p.Rank, p.Epoch, int32(l), trace.CatStage, "update")
	start = time.Now()
	out := layer.Update(c, feats, nbr)
	p.Timer.Add(metrics.StageUpdate, time.Since(start))
	span.End()
	if cancel != nil {
		if err := cancel(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
