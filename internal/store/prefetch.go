package store

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/metrics"
	"repro/internal/nau"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// SamplerOptions configures a Sampler.
type SamplerOptions struct {
	// Layers is the number of layer plans per batch: one per model layer,
	// built top-down from the batch roots exactly like the serve planner
	// (layer l's input universe is layer l-1's output frontier), so a batch
	// carries the full k-hop dependency closure of its roots. <= 0 selects
	// one layer.
	Layers int
	// Schema selects the extraction per layer: nil runs DNFA 1-hop in-edge
	// expansion; non-nil runs neighbor selection (GraphStore.Sample) and
	// builds a leaf-remapped sub-HDG. A multi-type schema is
	// Hierarchicalize'd, matching whole-graph execution.
	Schema *hdg.SchemaTree
	// Seed is the run seed; each epoch's selection seed is
	// nau.EpochSeed(Seed, epoch).
	Seed uint64
	// Depth is the prefetch depth: how many materialised batches may queue
	// ready ahead of the trainer. <= 0 disables prefetch entirely — Next
	// materialises synchronously — which is the no-overlap reference the
	// benchmarks compare against.
	Depth int
	// Workers is the number of concurrent sampler workers materialising
	// batches (<= 0 selects 1). Sampler and trainer concurrency are
	// independent: more workers build batches side by side without
	// touching the trainer's kernel parallelism.
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
// layer outputs of Out from the previous layer's activations of In, through
// Adj (DNFA) or Sub (HDG models). A resident plan (Expand with a nil
// Universe) has no In: it reads the whole feature matrix in place, one row
// per vertex of the graph.
type LayerPlan struct {
	// Out lists the vertices whose layer output the plan computes; it is
	// the identity prefix of In, or the frontier itself in a resident plan.
	Out []graph.VertexID
	// In is the layer's input universe: Out first, then dependencies in
	// deterministic first-add order. Empty in a resident plan.
	In []graph.VertexID
	// Adj is the 1-hop sub-level over In for DNFA layers (nil for HDG); its
	// sources are vertex IDs in a resident plan.
	Adj *engine.Adjacency
	// Sub is the leaf-remapped sub-HDG for HDG layers (nil for DNFA); its
	// leaves stay vertex IDs in a resident plan.
	Sub *hdg.HDG
	// rows is the number of input rows Adj and Sub index: len(In), or the
	// graph's vertex count in a resident plan.
	rows int
	// ident is 0, 1, 2, … behind a universe plan's self rows, grown on
	// demand and never rewritten (autograd keeps prefixes).
	ident []int32
	// flat is the flat level Run last aggregated Sub through; its storage
	// is the next Run's.
	flat *engine.Adjacency
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
	// Plans holds the per-layer extraction, one plan per model layer.
	Plans []LayerPlan
	// In is the batch's overall feature universe, Plans[0].In: the roots
	// first, so Feats/Labels/Mask, which hold one row per In vertex, start
	// with the roots' rows.
	In []graph.VertexID
	// Feats, Labels and Mask are the gathered rows of In.
	Feats  *tensor.Tensor
	Labels []int32
	Mask   []bool
}

// Sampler materialises training batches through a GraphStore and a
// FeatureStore, optionally prefetching ahead of the trainer. The same
// Sampler serves any number of sequential epochs.
//
// What an epoch needs besides its batches — a selection memo per stream, a
// universe and buffers per worker — is kept on free lists and reused by the
// next epoch, and so are the batches a trainer hands back (Stream.Release).
type Sampler struct {
	gs   GraphStore
	fs   FeatureStore
	opts SamplerOptions

	memos     freeList[memo]
	scratches freeList[scratch]
	batches   freeList[Batch]

	waitHist   *metrics.Histogram
	depthGauge *metrics.Gauge
}

// freeList keeps objects nothing reads any more for reuse.
type freeList[T any] struct {
	mu    sync.Mutex
	items []*T
}

// get returns a kept object, or nil when there is none.
func (f *freeList[T]) get() *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.items) == 0 {
		return nil
	}
	x := f.items[len(f.items)-1]
	f.items = f.items[:len(f.items)-1]
	return x
}

func (f *freeList[T]) put(x *T) {
	f.mu.Lock()
	f.items = append(f.items, x)
	f.mu.Unlock()
}

// scratch is one sampler worker's reusable state: its universe and the
// memo's per-call buffers.
type scratch struct {
	u      *Universe
	misses []graph.VertexID
	counts []int32
	recs   []hdg.Record
}

func (s *Sampler) getScratch() *scratch {
	if sc := s.scratches.get(); sc != nil {
		return sc
	}
	return &scratch{u: NewUniverse(s.gs.NumVertices())}
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

	// memo holds the epoch's selections (nil for DNFA layers, and once the
	// stream is closed).
	memo *memo

	// Pipelined mode.
	out chan result
	wg  sync.WaitGroup

	// Synchronous mode (Depth <= 0).
	sync      bool
	sc        *scratch
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
		epochSeed: nau.EpochSeed(s.opts.Seed, epoch),
		batches:   batches,
	}
	// Only HDG layers consult the memo.
	if s.opts.Schema != nil {
		if st.memo = s.memos.get(); st.memo == nil {
			st.memo = newMemo(s.gs.NumVertices())
		}
	}
	if s.opts.Depth <= 0 {
		st.sync, st.sc = true, s.getScratch()
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
			sc := s.getScratch() // this worker's own
			defer s.scratches.put(sc)
			for i := range jobs {
				b, err := st.materialize(sc, i)
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
		b, err := st.materialize(st.sc, st.next)
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

// Release hands back a batch the caller is done with: a later batch of this
// sampler rebuilds its plans in place and takes its feature buffer, so
// nothing may read b, or anything taken from it, afterwards. Releasing is
// optional — a batch never released is garbage like any other — and a nil b
// is ignored.
func (st *Stream) Release(b *Batch) {
	if b == nil {
		return
	}
	tensor.Recycle(b.Feats)
	b.Feats = nil
	st.s.batches.put(b)
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
	} else if st.sc != nil {
		st.s.scratches.put(st.sc)
		st.sc = nil
	}
	if st.memo != nil {
		// No worker is left to read it.
		st.memo.reset()
		st.s.memos.put(st.memo)
		st.memo = nil
	}
	if st.err == nil {
		st.err = context.Canceled
	}
}

// materialize builds batch idx of the stream's schedule, self-contained, in
// a released batch's storage when there is one: dependency structure first
// (CatSample "sample" span), then the feature/label gather over the batch
// universe (CatSample "gather" span). sc is the calling goroutine's scratch.
func (st *Stream) materialize(sc *scratch, idx int) (*Batch, error) {
	s, ctx := st.s, st.ctx
	b := s.batches.get()
	if b == nil {
		b = new(Batch)
	}
	b.Epoch, b.Index, b.Roots = st.epoch, idx, st.batches[idx]
	span := s.opts.Tracer.Begin(s.opts.Rank, int32(st.epoch), int32(idx), trace.CatSample, "sample")
	err := st.extract(sc, b)
	span.End()
	if err != nil {
		return nil, err
	}

	gspan := s.opts.Tracer.Begin(s.opts.Rank, int32(st.epoch), int32(idx), trace.CatSample, "gather")
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

// extract builds per-layer plans top-down from the roots: layer l's input
// universe is layer l-1's output frontier. A recycled batch's plans are
// rebuilt in place.
func (st *Stream) extract(sc *scratch, b *Batch) error {
	s := st.s
	L := s.opts.Layers
	if L <= 0 {
		L = 1
	}
	sel := func(frontier []graph.VertexID) ([]hdg.Record, error) {
		return st.memo.sample(st.ctx, s.gs, st.epochSeed, frontier, sc)
	}
	if len(b.Plans) != L {
		b.Plans = make([]LayerPlan, L)
	}
	frontier := b.Roots
	for l := L - 1; l >= 0; l-- {
		if err := Expand(st.ctx, s.gs, s.opts.Schema, sc.u, frontier, sel, &b.Plans[l]); err != nil {
			return err
		}
		frontier = b.Plans[l].In
	}
	b.In = b.Plans[0].In
	return nil
}

// Expand builds into p the plan of one layer whose output frontier is out —
// the one frontier expansion mini-batch training and serving share (the k-hop
// sub-HDG extraction of §4.1, one hop at a time). A nil schema takes each
// frontier vertex's 1-hop in-edges from gs; otherwise sel supplies the
// frontier's neighbor records, which become a sub-HDG. The universe puts the
// frontier first (the Update stage's self rows), then each destination's
// sources in whole-graph order, which is what keeps a batch bit-identical to
// whole-graph execution.
//
// A nil u makes the plan resident: for a bottom layer whose input is the
// feature matrix itself, sources and leaves stay vertex IDs — the rows of
// that matrix, in the same whole-graph order — and no universe, remap or row
// copy is built; Out is the frontier and In is empty. Either way a neighbor
// or leaf outside the graph is a *FetchError.
//
// u is the caller's scratch index (reset here). Whatever p held is dead after
// the call — its In, adjacency and sub-HDG arrays are rebuilt in place, so
// expanding batch after batch into the same plan stops allocating; a zero p
// gets storage of its own. The records sel returns are copied, so they may
// alias storage sel reuses on its next call.
func Expand(ctx context.Context, gs GraphStore, schema *hdg.SchemaTree, u *Universe, out []graph.VertexID,
	sel func(frontier []graph.VertexID) ([]hdg.Record, error), p *LayerPlan) error {
	var n int // a resident plan's row count
	if u != nil {
		if err := u.Reset(p.In, out); err != nil {
			return err
		}
	} else {
		n = gs.NumVertices()
		for _, v := range out {
			if uint(v) >= uint(n) {
				return fmt.Errorf("store: frontier vertex %d not in [0,%d)", v, n)
			}
		}
	}
	if schema == nil {
		p.Sub = nil
		var err error
		if p.Adj, err = u.InEdgeAdjacency(ctx, gs, out, p.Adj); err != nil {
			return err
		}
	} else {
		recs, err := sel(out)
		if err != nil {
			return err
		}
		h, err := hdg.BuildInto(p.Sub, schema, out, recs)
		if err != nil {
			return err
		}
		if !schema.IsFlat() {
			// Multi-type schemas aggregate through the hierarchical
			// driver; force that shape even for degenerate batches.
			h.Hierarchicalize()
		}
		if u != nil {
			err = u.SubHDG(h)
		} else {
			err = checkLeaves(h, n)
		}
		if err != nil {
			return err
		}
		p.Adj, p.Sub = nil, h
	}
	if u == nil {
		p.Out = append(p.In[:0], out...)
		p.In, p.rows = p.Out[:0], n
		return nil
	}
	p.In = u.Vertices()
	p.Out = p.In[:len(out):len(out)]
	p.rows = len(p.In)
	return nil
}
