package store

import (
	"context"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// SamplerOptions configures a Sampler.
type SamplerOptions struct {
	// Layers selects layered extraction: one plan per model layer, built
	// top-down from the batch roots exactly like the serve planner (layer
	// l's input universe is layer l-1's output frontier), so a batch
	// carries the full k-hop dependency closure of its roots. <= 0 selects
	// one layer. Ignored when Hops > 0.
	Layers int
	// Schema selects the extraction per layer: nil runs DNFA 1-hop in-edge
	// expansion; non-nil runs neighbor selection (GraphStore.Sample or the
	// Select hook) and builds a leaf-remapped sub-HDG. A multi-type schema
	// is Hierarchicalize'd, matching whole-graph execution.
	Schema *hdg.SchemaTree
	// Hops > 0 selects the §7.1 full-neighborhood mode instead of layered
	// plans: expand the roots `Hops` out-hops, sort, and induce — the
	// Euler/DistDGL emulation the baseline executor uses.
	Hops int
	// Select overrides GraphStore.Sample for HDG extraction. It receives
	// the epoch, the batch index and the layer frontier; batches may be
	// materialised out of order, so Select must be concurrency-safe and
	// must not derive randomness from call order.
	Select func(epoch, index int, frontier []graph.VertexID) ([]hdg.Record, error)
	// Seed is the run seed; each epoch's selection seed is
	// EpochSeed(Seed, epoch).
	Seed uint64
	// Depth is the prefetch depth: how many materialised batches may queue
	// ready ahead of the trainer. <= 0 disables prefetch entirely — Next
	// materialises synchronously — which is the no-overlap reference the
	// benchmarks compare against.
	Depth int
	// Workers is the number of concurrent sampler workers materialising
	// batches (<= 0 selects 1). Sampler and trainer concurrency are
	// independent: more workers keep a high-latency feature link busy
	// without touching the trainer's kernel parallelism.
	Workers int
	// Tracer records CatSample spans per batch (nil = off).
	Tracer *trace.Tracer
	// Metrics registers the sample_wait_ns histogram and prefetch_depth
	// gauge (nil = off).
	Metrics *metrics.Registry
	// Rank tags trace spans in multi-worker runs.
	Rank int32
}

// LayerPlan is one model layer's share of a materialised batch: compute the
// layer outputs of Out (the prefix of In) from the previous layer's
// activations of In, through Adj (DNFA) or Sub (HDG models).
type LayerPlan struct {
	// Out lists the vertices whose layer output the plan computes; it is
	// the identity prefix of In.
	Out []graph.VertexID
	// In is the layer's input universe: Out first, then dependencies in
	// deterministic first-add order.
	In []graph.VertexID
	// Adj is the 1-hop sub-level over In for DNFA layers (nil for HDG).
	Adj *engine.Adjacency
	// Sub is the leaf-remapped sub-HDG for HDG layers (nil for DNFA).
	Sub *hdg.HDG
}

// Batch is one fully materialised training batch: the dependency structure
// of its roots plus every feature row, label and mask bit the trainer
// needs. A Batch is self-contained — training on it touches no store and no
// shared state, which is what lets the next batch's materialisation overlap
// the current batch's forward/backward.
type Batch struct {
	// Epoch and Index locate the batch in the epoch's schedule.
	Epoch int
	Index int
	// Roots are the batch's target vertices.
	Roots []graph.VertexID
	// Plans holds the per-layer extraction in layered mode (nil in k-hop
	// mode).
	Plans []LayerPlan
	// In is the batch's overall feature universe: Plans[0].In in layered
	// mode, the sorted k-hop expansion in k-hop mode. Feats/Labels/Mask
	// hold one row per In vertex.
	In []graph.VertexID
	// RootRows maps each root to its row in In (the identity prefix in
	// layered mode; positions within the sorted expansion in k-hop mode).
	RootRows []int32
	// Adj/Sub are the single-level dependency structure for k-hop and
	// single-layer batches (aliases of Plans[0] in layered mode with one
	// layer).
	Adj *engine.Adjacency
	Sub *hdg.HDG
	// Feats, Labels and Mask are the gathered rows of In.
	Feats  *tensor.Tensor
	Labels []int32
	Mask   []bool
}

// Sampler materialises training batches through a GraphStore and a
// FeatureStore, optionally prefetching ahead of the trainer. The same
// Sampler serves any number of sequential epochs.
type Sampler struct {
	gs   GraphStore
	fs   FeatureStore
	opts SamplerOptions

	waitHist   *metrics.Histogram
	depthGauge *metrics.Gauge
}

// NewSampler builds a sampler over the given stores.
func NewSampler(gs GraphStore, fs FeatureStore, opts SamplerOptions) *Sampler {
	return &Sampler{
		gs:   gs,
		fs:   fs,
		opts: opts,
		// Nil-safe instruments: a nil registry yields no-op hooks.
		waitHist:   opts.Metrics.Histogram("sample_wait_ns"),
		depthGauge: opts.Metrics.Gauge("prefetch_depth"),
	}
}

// result pairs a materialised batch with its error.
type result struct {
	b   *Batch
	err error
}

// Stream delivers one epoch's batches in schedule order. Next blocks until
// the next batch is ready (recording the wait in sample_wait_ns — the
// number that shrinks when prefetch overlaps compute) and returns io.EOF
// after the last batch. Close cancels outstanding work and drains the
// pipeline; it is safe to call at any time and more than once.
type Stream struct {
	s      *Sampler
	ctx    context.Context
	cancel context.CancelFunc

	// Pipelined mode.
	out chan result
	wg  sync.WaitGroup

	// Synchronous mode (Depth <= 0).
	sync      bool
	u         *Universe
	epoch     int
	epochSeed uint64
	batches   [][]graph.VertexID

	next int
	err  error
}

// Epoch starts materialising the given batch schedule for one epoch.
// Batches are delivered strictly in schedule order regardless of which
// prefetch worker finishes first, so the trainer's consumption order — and
// with batch-composition-independent selection, its results — are identical
// at every prefetch depth.
func (s *Sampler) Epoch(ctx context.Context, epoch int, batches [][]graph.VertexID) *Stream {
	ictx, cancel := context.WithCancel(ctx)
	st := &Stream{
		s:         s,
		ctx:       ictx,
		cancel:    cancel,
		epoch:     epoch,
		epochSeed: EpochSeed(s.opts.Seed, epoch),
		batches:   batches,
	}
	if s.opts.Depth <= 0 {
		st.sync, st.u = true, NewUniverse(s.gs.NumVertices())
		return st
	}

	workers := s.opts.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > len(batches) {
		workers = len(batches)
	}
	st.out = make(chan result, s.opts.Depth)
	jobs := make(chan int)
	slots := make([]chan result, len(batches))
	for i := range slots {
		slots[i] = make(chan result, 1)
	}

	// Generator: hand out batch indices in order. Workers pulling from one
	// channel bound the in-flight materialisations to the worker count; the
	// out channel's capacity bounds the finished-but-unconsumed batches to
	// Depth. Total lookahead is therefore at most Depth + Workers batches.
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		defer close(jobs)
		for i := range batches {
			select {
			case jobs <- i:
			case <-ictx.Done():
				return
			}
		}
	}()

	for w := 0; w < workers; w++ {
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			u := NewUniverse(s.gs.NumVertices()) // this worker's own
			for i := range jobs {
				b, err := s.materialize(ictx, u, epoch, st.epochSeed, i, batches[i])
				slots[i] <- result{b, err} // cap 1: never blocks
				if err != nil {
					return
				}
			}
		}()
	}

	// Forwarder: re-sequence slot results into schedule order. An error
	// stops the stream at the failing batch index — later batches never
	// reach the trainer.
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		defer close(st.out)
		for i := range slots {
			var r result
			select {
			case r = <-slots[i]:
			case <-ictx.Done():
				return
			}
			select {
			case st.out <- r:
			case <-ictx.Done():
				return
			}
			if r.err != nil {
				return
			}
		}
	}()
	return st
}

// Next returns the next batch in schedule order, io.EOF after the last, or
// the first materialisation/cancellation error. After an error the stream
// is dead: outstanding work is cancelled and Next keeps returning the same
// error.
func (st *Stream) Next() (*Batch, error) {
	if st.err != nil {
		return nil, st.err
	}
	if st.sync {
		if st.next >= len(st.batches) {
			st.err = io.EOF
			return nil, io.EOF
		}
		b, err := st.s.materialize(st.ctx, st.u, st.epoch, st.epochSeed, st.next, st.batches[st.next])
		if err != nil {
			st.fail(err)
			return nil, err
		}
		st.next++
		return b, nil
	}

	span := st.s.opts.Tracer.Begin(st.s.opts.Rank, int32(st.epoch), int32(st.next), trace.CatSample, "sample_wait")
	start := time.Now()
	var r result
	var ok bool
	select {
	case r, ok = <-st.out:
	case <-st.ctx.Done():
		span.End()
		st.fail(st.ctx.Err())
		return nil, st.err
	}
	st.s.waitHist.Observe(time.Since(start).Nanoseconds())
	st.s.depthGauge.Set(float64(len(st.out)))
	span.End()
	if !ok {
		// The forwarder also closes out when the context is cancelled, and
		// the select above may see the close before Done.
		err := st.ctx.Err()
		if err == nil {
			err = io.EOF
		}
		st.fail(err)
		return nil, err
	}
	if r.err != nil {
		st.fail(r.err)
		return nil, r.err
	}
	st.next++
	return r.b, nil
}

// fail terminates the stream with err and cancels outstanding work.
func (st *Stream) fail(err error) {
	if st.err == nil {
		st.err = err
	}
	st.cancel()
}

// Close cancels outstanding materialisations and waits for every pipeline
// goroutine to drain. It never blocks on the trainer: workers park results
// in per-batch slots and exit on cancellation.
func (st *Stream) Close() {
	st.cancel()
	if !st.sync {
		// Drain anything the forwarder parked so its send never leaks.
		for range st.out {
		}
		st.wg.Wait()
	}
	if st.err == nil {
		st.err = context.Canceled
	}
}

// materialize builds one self-contained batch: dependency structure first
// (CatSample "sample" span), then the feature/label gather over the batch
// universe (CatSample "gather" span). u is the calling goroutine's scratch
// index.
func (s *Sampler) materialize(ctx context.Context, u *Universe, epoch int, epochSeed uint64, idx int, roots []graph.VertexID) (*Batch, error) {
	b := &Batch{Epoch: epoch, Index: idx, Roots: roots}
	span := s.opts.Tracer.Begin(s.opts.Rank, int32(epoch), int32(idx), trace.CatSample, "sample")
	var err error
	if s.opts.Hops > 0 {
		err = s.extractKHop(ctx, b)
	} else {
		err = s.extractLayered(ctx, u, epoch, epochSeed, idx, b)
	}
	span.End()
	if err != nil {
		return nil, err
	}

	gspan := s.opts.Tracer.Begin(s.opts.Rank, int32(epoch), int32(idx), trace.CatSample, "gather")
	fs, err := s.fs.Gather(ctx, b.In)
	gspan.End()
	if err != nil {
		return nil, err
	}
	b.Feats = fs.Feats
	b.Labels = fs.Labels
	b.Mask = fs.Mask
	return b, nil
}

// extractKHop materialises the §7.1 full-neighborhood structure: sorted
// k-hop expansion plus induced in-edge adjacency.
func (s *Sampler) extractKHop(ctx context.Context, b *Batch) error {
	sub, err := s.gs.KHopInduced(ctx, b.Roots, s.opts.Hops)
	if err != nil {
		return err
	}
	b.In = sub.Vertices
	b.Adj = sub.Adj
	b.RootRows = make([]int32, len(b.Roots))
	for i, v := range b.Roots {
		// The expansion is sorted and contains every root.
		b.RootRows[i] = int32(sort.Search(len(b.In), func(j int) bool { return b.In[j] >= v }))
	}
	return nil
}

// extractLayered builds per-layer plans top-down from the roots: layer l's
// input universe is layer l-1's output frontier.
func (s *Sampler) extractLayered(ctx context.Context, u *Universe, epoch int, epochSeed uint64, idx int, b *Batch) error {
	L := s.opts.Layers
	if L <= 0 {
		L = 1
	}
	sel := func(frontier []graph.VertexID) ([]hdg.Record, error) {
		if s.opts.Select != nil {
			return s.opts.Select(epoch, idx, frontier)
		}
		return s.gs.Sample(ctx, frontier, epochSeed)
	}
	b.Plans = make([]LayerPlan, L)
	frontier := b.Roots
	for l := L - 1; l >= 0; l-- {
		if err := Expand(ctx, s.gs, s.opts.Schema, u, frontier, sel, &b.Plans[l]); err != nil {
			return err
		}
		frontier = b.Plans[l].In
	}
	b.In = b.Plans[0].In
	b.RootRows = make([]int32, len(b.Roots))
	for i := range b.RootRows {
		b.RootRows[i] = int32(i) // roots are the prefix of every layer's In
	}
	if L == 1 {
		b.Adj = b.Plans[0].Adj
		b.Sub = b.Plans[0].Sub
	}
	return nil
}

// Expand builds into p the plan of one layer whose output frontier is out —
// the one frontier expansion mini-batch training and serving share (the k-hop
// sub-HDG extraction of §4.1, one hop at a time). A nil schema takes each
// frontier vertex's 1-hop in-edges from gs; otherwise sel supplies the
// frontier's neighbor records, which become a leaf-remapped sub-HDG. The
// universe puts the frontier first (the Update stage's self rows), then each
// destination's sources in whole-graph order, which is what keeps a batch
// bit-identical to whole-graph execution.
//
// u is the caller's scratch index (reset here). Whatever p held is dead after
// the call — its In and adjacency arrays are rebuilt in place, so expanding
// batch after batch into the same plan stops allocating; a zero p gets
// storage of its own.
func Expand(ctx context.Context, gs GraphStore, schema *hdg.SchemaTree, u *Universe, out []graph.VertexID,
	sel func(frontier []graph.VertexID) ([]hdg.Record, error), p *LayerPlan) error {
	err := u.Reset(p.In, out)
	if err != nil {
		return err
	}
	if schema == nil {
		p.Sub = nil
		if p.Adj, err = u.InEdgeAdjacency(ctx, gs, out, p.Adj); err != nil {
			return err
		}
	} else {
		recs, err := sel(out)
		if err != nil {
			return err
		}
		h, err := hdg.Build(schema, out, recs)
		if err != nil {
			return err
		}
		if !schema.IsFlat() {
			// Multi-type schemas aggregate through the hierarchical
			// driver; force that shape even for degenerate batches.
			h.Hierarchicalize()
		}
		p.Adj = nil
		if p.Sub, err = u.SubHDG(h); err != nil {
			return err
		}
	}
	p.In = u.Vertices()
	p.Out = p.In[:len(out):len(out)]
	return nil
}
