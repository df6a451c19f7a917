package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/collective"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/rpc"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// runTraced is the traced run: the workload's own runner with the program's
// tracer, registry and telemetry on (preceded by an untraced slice of the same
// length, which prices the tracer), short runs of the other two runners on the
// same dataset and model, and micro-probes of every remaining layer at the
// workload's shapes. Every call into a layer sits under a bench-side span.
func runTraced(e *env) error {
	e.bench = trace.New(1 << 16)
	root := e.span(0, "bench", "traced_run:"+e.spec.name)
	e.rootID = root.ID()
	tracer := trace.New(1 << 18)

	sp := e.span(e.rootID, "dataset", "generate")
	t0 := time.Now()
	d, err := e.spec.generate(e.seed, e.tiny)
	e.metrics["dataset.gen_s"] = time.Since(t0).Seconds()
	sp.End()
	if err != nil {
		return err
	}

	// The workload's own runner goes first, while the process is fresh, and
	// is the one whose untraced/traced pair prices the tracer; then the other
	// two runners price their layers on this workload's dataset and model.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var untraced, traced []float64
	layers := func(kind string) error {
		own := kind == e.spec.kind
		var u, t []float64
		var err error
		switch kind {
		case kindTrain:
			u, t, err = trainLayers(e, e.rootID, own, tracer)
		case kindCluster:
			u, t, err = clusterLayers(e, e.rootID, d, own, tracer)
		default:
			var lm map[string]float64
			lm, u, t, err = serveLayers(e, e.rootID, d, own, tracer)
			for k, v := range lm {
				e.metrics[k] = v
			}
			if err == nil && own && !e.spec.routed {
				// The direct workload has no router: price that layer on
				// the short routed run, keeping its own serve.* numbers.
				if lm, _, _, err = serveLayers(e, e.rootID, d, false, tracer); err == nil {
					for k, v := range lm {
						if strings.HasPrefix(k, "router.") {
							e.metrics[k] = v
						}
					}
				}
			}
		}
		if own {
			untraced, traced = u, t
		}
		if err != nil {
			return fmt.Errorf("%s layers: %w", kind, err)
		}
		return nil
	}
	if err := layers(e.spec.kind); err != nil {
		return err
	}
	// Memory is the own runner's: read before the other runners and the
	// probes grow the heap.
	runtime.ReadMemStats(&ms1)
	e.metrics["process.peak_rss_mb"] = peakRSSMB()
	ownOps := e.ops
	for _, kind := range []string{kindTrain, kindCluster, kindServe} {
		if kind != e.spec.kind {
			if err := layers(kind); err != nil {
				return err
			}
		}
	}
	if err := microProbes(e, e.rootID, d); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}

	e.metrics["trace.overhead_frac"] = median(traced)/median(untraced) - 1
	e.detail["untraced_p50"] = median(untraced)
	e.detail["traced_p50"] = median(traced)
	e.metrics["process.alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / float64(max(ownOps, 1))
	e.metrics["process.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

	root.End()
	spans, dropped, err := e.writeTrace(tracer)
	if err != nil {
		return err
	}
	e.metrics["trace.spans"] = float64(spans)
	e.metrics["trace.dropped"] = float64(dropped)
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// selection returns the neighbor-selection schema and UDF the probes drive:
// the model's own, or PinSage's default random walk for DNFA models, which
// select nothing themselves.
func selection(m *nau.Model) (*hdg.SchemaTree, nau.NeighborUDF) {
	if m.NeedsHDG() {
		return m.Layers[0].Schema(), m.Layers[0].NeighborUDF()
	}
	c := models.DefaultPinSageConfig()
	return hdg.NewSchemaTree("vertex"), nau.RandomWalkUDF(c.NumWalks, c.Hops, c.TopK)
}

// hierarchical returns the multi-level HDG the engine's intermediate and
// schema levels are probed on: the model's own for MAGNN, otherwise the
// dataset's metapaths over a prefix of the roots.
func hierarchical(e *env, d *dataset.Dataset, m *nau.Model) (*hdg.HDG, error) {
	schema, udf := m.Layers[0].Schema(), m.Layers[0].NeighborUDF()
	roots := nau.AllVertices(d.Graph)
	if schema == nil || schema.IsFlat() {
		names := make([]string, len(d.Metapaths))
		for i, p := range d.Metapaths {
			names[i] = p.Name
		}
		schema, udf = hdg.NewSchemaTree(names...), nau.MetapathUDF(d.Metapaths, 8)
		if len(roots) > 1024 {
			roots = roots[:1024]
		}
	}
	h, err := nau.NeighborSelection(d.Graph, schema, udf, roots, tensor.NewRNG(e.seed))
	if err != nil {
		return nil, err
	}
	if h.IsFlat() {
		h.Hierarchicalize()
	}
	return h, nil
}

// microProbes times one call into each layer at the workload's shapes and
// records exact size counts. Each probe is a bench span; values are medians.
func microProbes(e *env, parent uint64, d *dataset.Dataset) error {
	budget := e.probeBudget()
	g, n := d.Graph, d.Graph.NumVertices()
	F, H := d.FeatureDim(), e.spec.hidden
	rng := tensor.NewRNG(e.seed ^ 0x9e3779b9)
	model := e.spec.factory(d)(tensor.NewRNG(e.seed))
	eng := engine.New(engine.StrategyHA)
	probe := func(layer, name string, fn func() error) error {
		sp := e.span(parent, layer, name)
		defer sp.End()
		if err := fn(); err != nil {
			return fmt.Errorf("%s.%s: %w", layer, name, err)
		}
		return nil
	}

	steps := []struct {
		layer, name string
		fn          func() error
	}{
		{"partition", "hash", func() error {
			var p *partition.Partitioning
			e.metrics["partition.hash_s"] = timeMedian(budget, 3, func() { p = partition.Hash(n, 2) })
			e.metrics["partition.edge_cut_frac"] = float64(partition.EdgeCut(g, p)) / float64(g.NumEdges())
			return nil
		}},
		{"tensor", "matmul_gather", func() error {
			w := tensor.RandN(rng, 0.1, F, H)
			e.metrics["tensor.matmul_ns"] = 1e9 * timeMedian(budget, 3, func() { sink = d.Features.MatMul(w) })
			idx := make([]int32, n)
			for i := range idx {
				idx[i] = int32(rng.Intn(n))
			}
			e.metrics["tensor.gather_ns"] = 1e9 * timeMedian(budget, 3, func() { sink = tensor.Gather(d.Features, idx) })
			return nil
		}},
		{"engine", "aggregate_bottom", func() error {
			adj := engine.FromGraphInEdges(g)
			x := nn.Constant(d.Features)
			fwd := timeMedian(budget, 3, func() { sink = eng.AggregateBottom(adj, x, tensor.ReduceSum) })
			e.metrics["engine.agg_bottom_fwd_ns"] = 1e9 * fwd
			e.metrics["engine.edges_per_s"] = float64(adj.NumEdges()) / fwd
			e.metrics["engine.agg_bottom_fwdbwd_ns"] = 1e9 * timeMedian(budget, 3, func() {
				p := nn.Param(d.Features)
				nn.MeanAll(eng.AggregateBottom(adj, p, tensor.ReduceSum)).Backward()
			})
			return nil
		}},
		{"engine", "aggregate_levels", func() error {
			h, err := hierarchical(e, d, model)
			if err != nil {
				return err
			}
			if h.NumInstances() == 0 {
				return errors.New("hierarchical probe HDG has no instance")
			}
			inst := nn.Constant(tensor.RandN(rng, 1, h.NumInstances(), H))
			scores := nn.Constant(tensor.RandN(rng, 1, h.NumInstances(), 1))
			slots := nn.Constant(tensor.RandN(rng, 1, h.NumRoots()*h.NumTypes(), H))
			e.metrics["engine.agg_intermediate_ns"] = 1e9 * timeMedian(budget, 3, func() {
				sink = eng.AggregateIntermediate(h, inst, tensor.ReduceMean)
			})
			e.metrics["engine.softmax_weighted_ns"] = 1e9 * timeMedian(budget, 3, func() {
				sink = eng.SoftmaxWeighted(h, scores, inst)
			})
			e.metrics["engine.agg_schema_ns"] = 1e9 * timeMedian(budget, 3, func() {
				sink = eng.AggregateSchema(h, slots, tensor.ReduceMean)
			})
			return nil
		}},
		{"nau", "select_build", func() error {
			schema, udf := selection(model)
			roots := nau.AllVertices(g)
			var records []hdg.Record
			for _, v := range roots {
				records = append(records, udf(g, schema, v, tensor.NewRNG(store.VertexSeed(e.seed, v)))...)
			}
			var h *hdg.HDG
			var err error
			e.metrics["hdg.build_s"] = timeMedian(budget, 2, func() { h, err = hdg.Build(schema, roots, records) })
			if err != nil {
				return err
			}
			e.metrics["hdg.bytes"] = float64(h.NumBytes())
			e.metrics["hdg.instances"] = float64(h.NumInstances())
			selRNG := tensor.NewRNG(e.seed)
			e.metrics["nau.select_s"] = timeMedian(budget, 2, func() {
				sink, err = nau.NeighborSelection(g, schema, udf, roots, selRNG)
			})
			return err
		}},
		{"nn", "loss_backward_step", func() error { return nnProbes(e, d) }},
		{"rpc", "codec_rtt", func() error { return rpcProbes(e, n/2+1, H) }},
		{"collective", "allreduce_exchange_barrier", func() error {
			return collectiveProbes(e, nn.NumParams(model.Parameters()), (n/4+1)*H)
		}},
		{"store", "sample_gather_forward", func() error { return storeProbes(e, d, model, eng) }},
	}
	for _, s := range steps {
		if err := probe(s.layer, s.name, s.fn); err != nil {
			return err
		}
	}
	return nil
}

// nnProbes drives forward -> CrossEntropy -> Backward -> Step through the
// public calls on a fresh trainer, timing each, then saves and loads the
// resulting training state.
func nnProbes(e *env, d *dataset.Dataset) error {
	model := e.spec.factory(d)(tensor.NewRNG(e.seed))
	tr := nau.NewTrainerWith(model, nau.TrainerOptions{
		Graph: d.Graph, Features: d.Features, Labels: d.Labels, TrainMask: d.TrainMask, Seed: e.seed,
	})
	reps := 5
	if e.tiny {
		reps = 2
	}
	var lossS, bwdS, stepS []float64
	for i := 0; i <= reps; i++ {
		logits, err := tr.Forward(true)
		if err != nil {
			return err
		}
		t0 := time.Now()
		loss := nn.CrossEntropy(logits, d.Labels, d.TrainMask)
		t1 := time.Now()
		tr.Opt.ZeroGrad()
		loss.Backward()
		t2 := time.Now()
		tr.Opt.Step()
		t3 := time.Now()
		if i == 0 {
			continue // first pass builds the HDG and fills the pools
		}
		lossS = append(lossS, t1.Sub(t0).Seconds())
		bwdS = append(bwdS, t2.Sub(t1).Seconds())
		stepS = append(stepS, t3.Sub(t2).Seconds())
	}
	e.metrics["nn.loss_ns"] = 1e9 * median(lossS)
	e.metrics["nn.backward_s"] = median(bwdS)
	e.metrics["nn.opt_step_s"] = median(stepS)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "ckpt-"+e.spec.name+".bin")
	defer os.Remove(path)
	st := &nn.TrainState{Params: model.Parameters(), Opt: tr.Opt, Epoch: reps, RNG: tr.RNG.State(), HasRNG: true}
	var err error
	e.metrics["nn.ckpt_save_s"] = timeMedian(e.probeBudget(), 3, func() {
		if serr := nn.SaveStateFile(path, st); serr != nil {
			err = serr
		}
	})
	if err != nil {
		return err
	}
	e.metrics["nn.ckpt_load_s"] = timeMedian(e.probeBudget(), 3, func() {
		if lerr := nn.LoadStateFile(path, st); lerr != nil {
			err = lerr
		}
	})
	return err
}

// rpcProbes times the codec on a frame the size of a partials message for
// half the graph, and a 64 KiB echo over a real TCP connection.
func rpcProbes(e *env, rows, dim int) error {
	msg := &rpc.Message{
		Kind: rpc.KindPartials, IDs: make([]int32, rows), Counts: make([]int32, rows),
		Data: make([]float32, rows*dim), Dim: int32(dim),
	}
	buf := make([]byte, msg.NumBytes())
	e.metrics["rpc.encode_ns"] = 1e9 * timeMedian(e.probeBudget(), 3, func() { msg.EncodeInto(buf) })
	var err error
	e.metrics["rpc.decode_ns"] = 1e9 * timeMedian(e.probeBudget(), 3, func() {
		if _, derr := rpc.Decode(buf); derr != nil {
			err = derr
		}
	})
	if err != nil {
		return err
	}

	m, err := newMesh(2, true)
	if err != nil {
		return err
	}
	defer m.close()
	// Rank 1 echoes feature frames until it sees the barrier frame.
	echoErr := make(chan error, 1)
	go func() {
		for {
			in, err := m.trs[1].Recv()
			if err != nil {
				echoErr <- err
				return
			}
			if in.Kind == rpc.KindBarrier {
				echoErr <- nil
				return
			}
			if err := m.trs[1].Send(0, in); err != nil {
				echoErr <- err
				return
			}
		}
	}()
	ping := &rpc.Message{Kind: rpc.KindFeatures, Data: make([]float32, 16384), Dim: 64}
	rtt := timeMedian(e.probeBudget(), 10, func() {
		if err != nil {
			return
		}
		if err = m.trs[0].Send(1, ping); err == nil {
			_, err = m.trs[0].Recv()
		}
	})
	if serr := m.trs[0].Send(1, &rpc.Message{Kind: rpc.KindBarrier}); err == nil {
		err = serr
	}
	if eerr := <-echoErr; err == nil {
		err = eerr
	}
	e.metrics["rpc.tcp_rtt_us"] = 1e6 * rtt
	return err
}

// collectiveProbes times the three collectives at k=2 over the workload's
// transport (TCP for the TCP workload, loopback otherwise): an all-reduce of
// the model's gradient, an exchange of a quarter of the hidden activations,
// and a barrier. Both ranks run the same fixed schedule; rank 0 is timed.
func collectiveProbes(e *env, gradWords, exchangeWords int) error {
	m, err := newMesh(2, e.spec.tcp)
	if err != nil {
		return err
	}
	defer m.close()
	reps := 15
	if e.tiny {
		reps = 3
	}
	gradWords += 2 + 2*metrics.StageCount // the loss, count and balance slots the runtime appends
	var times [3][]float64
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := collective.New(m.trs[r], &metrics.Breakdown{}, collective.WithRecvTimeout(30*time.Second))
			grads := make([]float32, gradWords)
			payload := make([]float32, exchangeWords)
			ops := []func(f collective.Fence) error{
				func(f collective.Fence) error { return c.AllReduce(f, grads, rpc.KindGrads) },
				func(f collective.Fence) error {
					_, err := c.Exchange(f, rpc.KindFeatures, func(int) *rpc.Message {
						return &rpc.Message{Kind: rpc.KindFeatures, Data: payload, Dim: 1}
					}, nil)
					return err
				},
				c.Barrier,
			}
			for i := 0; i < reps; i++ {
				for o, op := range ops {
					t0 := time.Now()
					if err := op(collective.Fence{Epoch: int32(i), Phase: int32(o)}); err != nil {
						errs[r] = err
						return
					}
					if r == 0 {
						times[o] = append(times[o], time.Since(t0).Seconds())
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	e.metrics["collective.allreduce_s"] = median(times[0])
	e.metrics["collective.exchange_s"] = median(times[1])
	e.metrics["collective.barrier_us"] = 1e6 * median(times[2])
	return nil
}

// storeProbes times the data plane per 256-root batch: the selection query
// and the feature gather on store.Local, a synchronous Sampler materialising
// a layered batch, store.Forward over it, and — with prefetch depth 2 — the
// share of a mini-batch epoch the trainer spends blocked in Stream.Next.
func storeProbes(e *env, d *dataset.Dataset, model *nau.Model, eng *engine.Engine) error {
	ctx := context.Background()
	g := d.Graph
	roots := nau.AllVertices(g)
	if len(roots) > 2048 {
		roots = roots[:2048]
	}
	var batches [][]graph.VertexID
	for s := 0; s < len(roots); s += 256 {
		batches = append(batches, roots[s:min(s+256, len(roots))])
	}
	schema, udf := selection(model)
	probeStore := store.NewLocal(store.LocalConfig{
		Graph: g, Features: d.Features, Labels: d.Labels, TrainMask: d.TrainMask, Schema: schema, UDF: udf,
	})
	var err error
	b := 0
	e.metrics["store.sample_ns"] = 1e9 * timeMedian(e.probeBudget(), 3, func() {
		if _, serr := probeStore.Sample(ctx, batches[b%len(batches)], e.seed); serr != nil {
			err = serr
		}
		b++
	})
	e.metrics["store.gather_ns"] = 1e9 * timeMedian(e.probeBudget(), 3, func() {
		if _, gerr := probeStore.Gather(ctx, batches[b%len(batches)]); gerr != nil {
			err = gerr
		}
		b++
	})
	if err != nil {
		return err
	}

	// The sampler runs the model's own extraction (DNFA in-edges for GCN).
	own := model.Layers[0]
	local := store.NewLocal(store.LocalConfig{
		Graph: g, Features: d.Features, Labels: d.Labels, TrainMask: d.TrainMask,
		Schema: own.Schema(), UDF: own.NeighborUDF(),
	})
	epoch := func(depth int) (nextS, totalS float64, matMS, fwdMS []float64, err error) {
		sampler := store.NewSampler(local, local, store.SamplerOptions{
			Layers: len(model.Layers), Schema: own.Schema(), Seed: e.seed, Depth: depth, Workers: 1,
		})
		st := sampler.Epoch(ctx, 0, batches)
		defer st.Close()
		rng := tensor.NewRNG(e.seed)
		start := time.Now()
		for {
			t0 := time.Now()
			bt, err := st.Next()
			if err == io.EOF {
				return nextS, time.Since(start).Seconds(), matMS, fwdMS, nil
			}
			if err != nil {
				return 0, 0, nil, nil, err
			}
			t1 := time.Now()
			logits, err := store.Forward(model, eng, g, bt, rng, true)
			if err != nil {
				return 0, 0, nil, nil, err
			}
			t2 := time.Now()
			nb := len(bt.Roots)
			nn.CrossEntropy(logits, bt.Labels[:nb], bt.Mask[:nb]).Backward()
			nextS += t1.Sub(t0).Seconds()
			matMS = append(matMS, t1.Sub(t0).Seconds()*1000)
			fwdMS = append(fwdMS, t2.Sub(t1).Seconds()*1000)
		}
	}
	if _, _, _, _, err := epoch(0); err != nil { // warm the pools
		return err
	}
	_, _, matMS, fwdMS, err := epoch(0)
	if err != nil {
		return err
	}
	e.metrics["store.batch_materialize_ms"] = median(matMS)
	e.metrics["store.forward_ms"] = median(fwdMS)
	nextS, totalS, _, _, err := epoch(2)
	if err != nil {
		return err
	}
	e.metrics["store.sample_wait_frac"] = nextS / totalS
	return nil
}
