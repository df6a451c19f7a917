package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/metrics"
	"repro/internal/partition"
)

// ---------------------------------------------------------------------------
// Figure 13 — scaling with the number of machines (simulated, Reddit).

// Fig13Point is one (system, model, k) data point.
type Fig13Point struct {
	System    string
	Model     baseline.ModelKind
	Workers   int
	EpochTime time.Duration
	Loss      float32
}

// Fig13Workers lists the x-axis of Fig. 13.
var Fig13Workers = []int{1, 2, 4, 8, 16}

// Fig13 reproduces the paper's Fig. 13: end-to-end epoch time on Reddit as
// the worker count grows. Each simulated worker computes with full machine
// parallelism (as if it were one of the paper's 96-core machines) and
// communication is modeled from real message bytes over a 3.25 GB/s NIC.
func Fig13(o Options) []Fig13Point {
	// Wide features (the real Reddit has 1433 dimensions) so per-worker
	// compute dominates fixed costs and the scaling behaviour shows.
	d := o.datasetDim("reddit", 512)
	var out []Fig13Point
	for _, kind := range []baseline.ModelKind{baseline.ModelGCN, baseline.ModelPinSage, baseline.ModelMAGNN} {
		spec := o.spec(kind)
		// Baseline series: the paper's Fig. 13 plots DistDGL for GCN and
		// PinSage, plus Euler for PinSage (neither expresses MAGNN). One
		// machine is measured for real; larger k assume OPTIMISTIC linear
		// scaling for the baselines — the gap to FlexGraph is therefore a
		// lower bound.
		baselines := map[string]baseline.Executor{}
		switch kind {
		case baseline.ModelGCN:
			baselines["DistDGL"] = baseline.NewDistDGL()
		case baseline.ModelPinSage:
			baselines["DistDGL"] = baseline.NewDistDGL()
			baselines["Euler"] = baseline.NewEuler()
		}
		for name, ex := range baselines {
			cell := o.timeEpochs(ex, d, spec)
			if cell.Err != nil {
				continue
			}
			for _, k := range Fig13Workers {
				out = append(out, Fig13Point{
					System:    name + " (linear-scaling bound)",
					Model:     kind,
					Workers:   k,
					EpochTime: cell.Time / time.Duration(k),
				})
			}
		}
		for _, k := range Fig13Workers {
			sim, err := cluster.NewSimulation(d, factoryFor(d, spec), cluster.SimConfig{
				NumWorkers: k,
				Pipeline:   true,
				Seed:       o.Seed,
			})
			if err != nil {
				panic(err)
			}
			// Warm-up epoch builds static HDG caches; then average.
			if _, err := sim.Epoch(); err != nil {
				panic(err)
			}
			var total time.Duration
			var loss float32
			for i := 0; i < o.Epochs; i++ {
				res, err := sim.Epoch()
				if err != nil {
					panic(err)
				}
				total += res.EpochTime
				loss = res.Loss
			}
			out = append(out, Fig13Point{System: "FlexGraph", Model: kind, Workers: k, EpochTime: total / time.Duration(o.Epochs), Loss: loss})
		}
	}
	return out
}

// FormatFig13 renders the scaling series.
func FormatFig13(points []Fig13Point) string {
	var b strings.Builder
	b.WriteString("Figure 13: end-to-end epoch time vs machines (simulated, reddit)\n")
	cur := ""
	for _, p := range points {
		key := string(p.Model) + " / " + p.System
		if key != cur {
			cur = key
			fmt.Fprintf(&b, "  %s:\n", key)
		}
		fmt.Fprintf(&b, "    k=%-3d %10.4fs\n", p.Workers, p.EpochTime.Seconds())
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 14 — hybrid aggregation ablation (SA vs SA+FA vs HA).

// Fig14Point is one (dataset, model, strategy) aggregation-stage time.
type Fig14Point struct {
	Dataset  string
	Model    baseline.ModelKind
	Strategy engine.Strategy
	AggTime  time.Duration
}

// Fig14 reproduces the paper's Fig. 14: the Aggregation-stage time under
// the three execution strategies on FB91 and Twitter.
func Fig14(o Options) []Fig14Point {
	var out []Fig14Point
	for _, name := range []string{"fb91", "twitter"} {
		d := o.dataset(name)
		for _, kind := range []baseline.ModelKind{baseline.ModelGCN, baseline.ModelPinSage, baseline.ModelMAGNN} {
			for _, strat := range []engine.Strategy{engine.StrategySA, engine.StrategySAFA, engine.StrategyHA} {
				spec := o.spec(kind)
				fg := baseline.NewFlexGraph()
				fg.Strategy = strat
				tr, err := fg.Trainer(d, spec)
				if err != nil {
					panic(err)
				}
				// Warm-up builds HDGs outside the measured window.
				if _, err := tr.Forward(false); err != nil {
					panic(err)
				}
				tr.Breakdown.Reset()
				for i := 0; i < o.Epochs; i++ {
					if _, err := tr.Epoch(); err != nil {
						panic(err)
					}
				}
				out = append(out, Fig14Point{
					Dataset:  name,
					Model:    kind,
					Strategy: strat,
					AggTime:  tr.Breakdown.Get(metrics.StageAggregation) / time.Duration(o.Epochs),
				})
			}
		}
	}
	return out
}

// FormatFig14 renders the ablation.
func FormatFig14(points []Fig14Point) string {
	var b strings.Builder
	b.WriteString("Figure 14: aggregation-stage time under SA / SA+FA / HA\n")
	key := ""
	for _, p := range points {
		k := p.Dataset + "/" + string(p.Model)
		if k != key {
			key = k
			fmt.Fprintf(&b, "  %-18s", k)
		}
		fmt.Fprintf(&b, "  %s=%.4fs", p.Strategy, p.AggTime.Seconds())
		if p.Strategy == engine.StrategyHA {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 15a — workload balancing (PuLP vs Hash vs ADB).

// Fig15aPoint is one (model, partitioner) aggregation-stage time.
type Fig15aPoint struct {
	Model       baseline.ModelKind
	Partitioner string
	AggTime     time.Duration
	Balance     float64
}

// Fig15aPartitioners lists the compared partitioners.
var Fig15aPartitioners = []string{"PuLP", "Hash", "ADB"}

// Fig15a reproduces the paper's Fig. 15a: the Aggregation-stage time of
// the three models on Twitter with k=8 partitions under PuLP-style label
// propagation, Hash, and the application-driven balancer.
func Fig15a(o Options) []Fig15aPoint {
	const k = 8
	// Wide features so per-worker compute (which the balancer equalises)
	// dominates fixed overheads.
	d := o.datasetDim("twitter", 256)
	n := d.Graph.NumVertices()
	var out []Fig15aPoint
	for _, kind := range []baseline.ModelKind{baseline.ModelGCN, baseline.ModelPinSage, baseline.ModelMAGNN} {
		spec := o.spec(kind)
		if kind == baseline.ModelMAGNN {
			// A higher instance cap lets hub vertices accumulate many more
			// metapath instances than the median vertex, restoring the
			// per-root cost skew this experiment is about (the paper's
			// MAGNN is uncapped).
			spec.MAGNN.MaxInstances = 60
		}
		cost := perRootCost(d, spec)
		// Cold-process warm-up (see Fig15bc).
		if warm, err := cluster.NewSimulation(d, factoryFor(d, spec), cluster.SimConfig{
			NumWorkers: k, Pipeline: true, Seed: o.Seed,
		}); err == nil {
			warm.Epoch()
			warm.Epoch()
		}
		// Build all three partitionings and simulations up front, then
		// interleave their epochs so slow drift (GC, cache warmth) hits
		// every configuration equally; report the per-configuration median.
		parts := make([]*partition.Partitioning, len(Fig15aPartitioners))
		sims := make([]*cluster.Simulation, len(Fig15aPartitioners))
		for i, pname := range Fig15aPartitioners {
			switch pname {
			case "Hash":
				parts[i] = partition.Hash(n, k)
			case "PuLP":
				parts[i] = partition.LabelProp(d.Graph, k, 5, 1.2, o.Seed)
			case "ADB":
				adb := partition.DefaultADB()
				adb.Seed = o.Seed
				parts[i] = adb.Rebalance(d.Graph, partition.Hash(n, k), cost)
			}
			sim, err := cluster.NewSimulation(d, factoryFor(d, spec), cluster.SimConfig{
				NumWorkers:   k,
				Pipeline:     true,
				Partitioning: parts[i],
				Seed:         o.Seed,
			})
			if err != nil {
				panic(err)
			}
			if _, err := sim.Epoch(); err != nil { // warm-up (HDG caches)
				panic(err)
			}
			sims[i] = sim
		}
		samples := make([][]time.Duration, len(sims))
		rounds := o.Epochs
		if rounds < 5 {
			rounds = 5
		}
		for r := 0; r < rounds; r++ {
			for i, sim := range sims {
				res, err := sim.Epoch()
				if err != nil {
					panic(err)
				}
				// The balance metric is the slowest machine's aggregation
				// *compute*: at laptop scale the modeled NIC costs would
				// otherwise drown the per-worker compute the balancer
				// equalises (see EXPERIMENTS.md).
				samples[i] = append(samples[i], res.AggComputeTime)
			}
		}
		for i, pname := range Fig15aPartitioners {
			out = append(out, Fig15aPoint{
				Model:       kind,
				Partitioner: pname,
				AggTime:     median(samples[i]),
				Balance:     partition.BalanceFactor(parts[i].Loads(cost)),
			})
		}
	}
	return out
}

// median returns the middle sample (durations are sorted in place).
func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// perRootCost estimates each root's aggregation cost for the ADB cost
// model. For HDG models it uses the learned-polynomial pipeline: build the
// HDGs once, extract the (n_t·m_t) metrics, fit the cost model on measured
// per-root work (proxied by the metric sum, plus noise-free intercept) and
// predict; for GCN the cost is the 1-hop degree.
func perRootCost(d *dataset.Dataset, spec baseline.Spec) []float64 {
	n := d.Graph.NumVertices()
	cost := make([]float64, n)
	if spec.Kind == baseline.ModelGCN {
		for v := 0; v < n; v++ {
			cost[v] = 1 + float64(d.Graph.InDegree(graph.VertexID(v)))
		}
		return cost
	}
	tr, err := flexTrainer(d, spec)
	if err != nil {
		panic(err)
	}
	if _, err := tr.Forward(false); err != nil {
		panic(err)
	}
	h := tr.HDG()
	feats := partition.HDGCostFeatures(h, d.FeatureDim())
	// Fit the polynomial cost model from "running logs": per-root samples
	// whose cost is the actual aggregation work (sum of the metrics).
	samples := make([]partition.CostSample, len(feats))
	for i, f := range feats {
		c := 1.0
		for _, x := range f {
			c += x
		}
		samples[i] = partition.CostSample{Features: f, Cost: c}
	}
	model := partition.FitCostModel(samples, h.NumTypes())
	for r, root := range rootsOf(h) {
		cost[root] = model.Predict(feats[r])
		if cost[root] < 1 {
			cost[root] = 1
		}
	}
	return cost
}

func rootsOf(h *hdg.HDG) []graph.VertexID { return h.Roots }

// FormatFig15a renders the balancing comparison.
func FormatFig15a(points []Fig15aPoint) string {
	var b strings.Builder
	b.WriteString("Figure 15a: workload balancing on twitter (k=8, aggregation stage)\n")
	cur := baseline.ModelKind("")
	for _, p := range points {
		if p.Model != cur {
			cur = p.Model
			fmt.Fprintf(&b, "  %s:\n", cur)
		}
		fmt.Fprintf(&b, "    %-5s %10.4fs (cost balance %.2f)\n", p.Partitioner, p.AggTime.Seconds(), p.Balance)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figures 15b/15c — pipeline processing on/off.

// Fig15bcPoint is one (dataset, model, pipeline) aggregation-stage time.
type Fig15bcPoint struct {
	Dataset  string
	Model    baseline.ModelKind
	Pipeline bool
	AggTime  time.Duration
}

// Fig15bc reproduces the paper's Figs. 15b and 15c: the Aggregation-stage
// time with and without pipeline processing on FB91 and Twitter, k=8.
func Fig15bc(o Options) []Fig15bcPoint {
	const k = 8
	var out []Fig15bcPoint
	for _, name := range []string{"fb91", "twitter"} {
		d := o.datasetDim(name, 256)
		for _, kind := range []baseline.ModelKind{baseline.ModelGCN, baseline.ModelPinSage, baseline.ModelMAGNN} {
			spec := o.spec(kind)
			// Interleave the on/off configurations epoch by epoch so slow
			// drift (GC, cache warmth) affects both equally, and report the
			// median epoch.
			modes := []bool{true, false}
			sims := make([]*cluster.Simulation, len(modes))
			for i, pipeline := range modes {
				sim, err := cluster.NewSimulation(d, factoryFor(d, spec), cluster.SimConfig{
					NumWorkers: k,
					Pipeline:   pipeline,
					Seed:       o.Seed,
				})
				if err != nil {
					panic(err)
				}
				if _, err := sim.Epoch(); err != nil {
					panic(err)
				}
				sims[i] = sim
			}
			samples := make([][]time.Duration, len(modes))
			rounds := o.Epochs
			if rounds < 5 {
				rounds = 5
			}
			for r := 0; r < rounds; r++ {
				for i, sim := range sims {
					res, err := sim.Epoch()
					if err != nil {
						panic(err)
					}
					samples[i] = append(samples[i], res.AggTime)
				}
			}
			for i, pipeline := range modes {
				out = append(out, Fig15bcPoint{Dataset: name, Model: kind, Pipeline: pipeline, AggTime: median(samples[i])})
			}
		}
	}
	return out
}

// FormatFig15bc renders the pipeline comparison.
func FormatFig15bc(points []Fig15bcPoint) string {
	var b strings.Builder
	b.WriteString("Figures 15b/15c: pipeline processing (k=8, aggregation stage)\n")
	for i := 0; i+1 < len(points); i += 2 {
		on, off := points[i], points[i+1]
		gain := 0.0
		if off.AggTime > 0 {
			gain = 100 * (1 - float64(on.AggTime)/float64(off.AggTime))
		}
		fmt.Fprintf(&b, "  %-8s %-8s  w/ PP %10.4fs   w/o PP %10.4fs   (%.1f%% faster)\n",
			on.Dataset, on.Model, on.AggTime.Seconds(), off.AggTime.Seconds(), gain)
	}
	return b.String()
}
