package bench

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Check is one verified reproduction claim.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Verify runs a medium-scale subset of the evaluation and asserts the
// qualitative shapes the reproduction targets (EXPERIMENTS.md's "shape
// preserved" claims). It is the CI entry point:
//
//	go run ./cmd/flexbench -experiment verify
//
// exits non-zero if any check fails.
func Verify(o Options) []Check {
	var out []Check
	add := func(name string, pass bool, format string, args ...interface{}) {
		out = append(out, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
	}

	// --- Table 2 shapes -----------------------------------------------------
	reddit := o.dataset("reddit")
	fb91 := o.dataset("fb91")
	imdb := o.dataset("imdb")

	// MAGNN expressivity: X for GAS-like systems, supported by NAU.
	for _, ex := range []baseline.Executor{baseline.DGL{}, baseline.NewEuler(), baseline.NewDistDGL()} {
		add("table2/magnn-X/"+ex.Name(), !ex.Supports(baseline.ModelMAGNN),
			"%s must not express MAGNN", ex.Name())
	}
	add("table2/magnn-flexgraph", baseline.NewFlexGraph().Supports(baseline.ModelMAGNN),
		"FlexGraph must express MAGNN")

	// OOM pattern: Euler GCN on power-law graphs; PyTorch MAGNN on big
	// graphs; FlexGraph runs both under the same budget.
	specGCN := o.spec(baseline.ModelGCN)
	specGCN.MemBudget = memBudget(fb91, specGCN.Hidden)
	_, err := baseline.NewEuler().Epoch(fb91, specGCN)
	add("table2/euler-gcn-oom", errors.Is(err, baseline.ErrOOM), "got %v", err)
	_, err = baseline.NewFlexGraph().Epoch(fb91, specGCN)
	add("table2/flexgraph-gcn-runs", err == nil, "got %v", err)

	specMAGNN := o.spec(baseline.ModelMAGNN)
	specMAGNN.MemBudget = memBudget(reddit, specMAGNN.Hidden)
	_, err = baseline.PyTorch{}.Epoch(reddit, specMAGNN)
	add("table2/pytorch-magnn-oom", errors.Is(err, baseline.ErrOOM), "got %v", err)
	_, err = baseline.NewFlexGraph().Epoch(reddit, specMAGNN)
	add("table2/flexgraph-magnn-runs", err == nil, "got %v", err)

	// PinSage timing: FlexGraph beats the walk-simulation systems.
	specPS := o.spec(baseline.ModelPinSage)
	flexPS := o.timeEpochs(baseline.NewFlexGraph(), fb91, specPS)
	dglPS := o.timeEpochs(baseline.DGL{}, fb91, specPS)
	add("table2/pinsage-flex-beats-dgl",
		flexPS.Err == nil && dglPS.Err == nil && flexPS.Time < dglPS.Time,
		"flex=%v dgl=%v", flexPS.Time, dglPS.Time)

	// --- Table 3 shape -------------------------------------------------------
	prePS := o.timeEpochs(baseline.NewPreExpand(), fb91, specPS)
	add("table3/predgl-beats-dgl",
		prePS.Err == nil && prePS.Time < dglPS.Time,
		"pre=%v dgl=%v", prePS.Time, dglPS.Time)

	// --- Table 4 shape -------------------------------------------------------
	t4 := Table4(o)
	selGCN, _, _ := t4[0].Fractions()
	selPS, _, _ := t4[1].Fractions()
	add("table4/gcn-selection-zero", selGCN == 0, "gcn selection fraction %v", selGCN)
	add("table4/pinsage-selection-large", selPS > 0.2, "pinsage selection fraction %v", selPS)

	// --- Table 5 shape -------------------------------------------------------
	t5 := Table5(o)
	psMax, magnnMin := 0.0, math.Inf(1)
	for _, r := range t5 {
		if r.Model == baseline.ModelPinSage && r.Ratio() > psMax {
			psMax = r.Ratio()
		}
		if r.Model == baseline.ModelMAGNN && r.Ratio() < magnnMin {
			magnnMin = r.Ratio()
		}
	}
	add("table5/pinsage-small", psMax < 0.5, "max PinSage ratio %.3f", psMax)
	add("table5/magnn-much-larger", magnnMin > 2*psMax, "magnn min %.3f vs pinsage max %.3f", magnnMin, psMax)

	// --- Figure 13 shape -----------------------------------------------------
	// MAGNN (the heavy model) must get faster from 1 to 8 simulated workers.
	wideReddit := o.datasetDim("reddit", 256)
	t1 := simEpochTime(wideReddit, specMAGNN, 1, o.Seed)
	t8 := simEpochTime(wideReddit, specMAGNN, 8, o.Seed)
	add("fig13/magnn-scales", t8 < t1, "k=1 %v vs k=8 %v", t1, t8)

	// --- Figure 14 shape -----------------------------------------------------
	// Fused aggregation must beat scatter on the isolated kernel.
	adj := engine.FromGraphInEdges(fb91.Graph)
	feats := nn.Constant(fb91.Features)
	fusedT := kernelTime(func() { engine.FusedAggregate(adj, feats, tensor.ReduceSum) })
	scatterT := kernelTime(func() { engine.ScatterAggregate(adj, feats, tensor.ReduceSum) })
	add("fig14/fused-beats-scatter", fusedT < scatterT, "fused=%v scatter=%v", fusedT, scatterT)

	// All three strategies must compute identical results.
	lossRef := float32(-1)
	strategiesAgree := true
	for _, strat := range []engine.Strategy{engine.StrategySA, engine.StrategySAFA, engine.StrategyHA} {
		fg := baseline.NewFlexGraph()
		fg.Strategy = strat
		spec := o.spec(baseline.ModelMAGNN)
		loss, err := fg.Epoch(imdb, spec)
		if err != nil {
			strategiesAgree = false
			break
		}
		if lossRef < 0 {
			lossRef = loss
		} else if math.Abs(float64(loss-lossRef)) > 1e-3 {
			strategiesAgree = false
		}
	}
	add("fig14/strategies-equivalent", strategiesAgree, "loss ref %v", lossRef)

	// --- Figure 15 / distributed correctness ---------------------------------
	factory := func(rng *tensor.RNG) *nau.Model {
		return modelsGCN(reddit, specGCN.Hidden, rng)
	}
	single := nau.NewTrainerWith(factory(tensor.NewRNG(o.Seed)),
		nau.TrainerOptions{Graph: reddit.Graph, Features: reddit.Features,
			Labels: reddit.Labels, TrainMask: reddit.TrainMask, Seed: o.Seed})
	refLoss, err := single.Epoch()
	if err != nil {
		add("fig15/single-machine", false, "%v", err)
	} else {
		for _, pipeline := range []bool{true, false} {
			res, err := cluster.Train(cluster.Config{
				NumWorkers: 4, Pipeline: pipeline, Epochs: 1, Seed: o.Seed,
			}, reddit, factory)
			name := fmt.Sprintf("fig15/distributed-forward-exact/pipeline=%v", pipeline)
			if err != nil {
				add(name, false, "%v", err)
				continue
			}
			diff := math.Abs(float64(res.Losses[0] - refLoss))
			add(name, diff < 1e-3, "distributed %v vs single %v", res.Losses[0], refLoss)
		}
		var simRes *cluster.SimResult
		sim, err := cluster.NewSimulation(reddit, factory, cluster.SimConfig{
			NumWorkers: 4, Pipeline: true, Seed: o.Seed,
		})
		if err == nil {
			simRes, err = sim.Epoch()
		}
		if err != nil {
			add("fig15/simulator-forward-exact", false, "%v", err)
		} else {
			diff := math.Abs(float64(simRes.Loss - refLoss))
			add("fig15/simulator-forward-exact", diff < 1e-3, "sim %v vs single %v", simRes.Loss, refLoss)
		}
	}

	// --- Storage ablation ------------------------------------------------------
	fgT5 := baseline.NewFlexGraph()
	tr, err := fgT5.Trainer(imdb, specMAGNN)
	if err == nil {
		_, err = tr.Forward(false)
	}
	if err != nil {
		add("hdg/compact-storage", false, "%v", err)
	} else {
		h := tr.HDG()
		add("hdg/compact-storage", h.NumBytes() < h.NumBytesNaive(),
			"compact %d vs naive %d", h.NumBytes(), h.NumBytesNaive())
	}
	return out
}

// modelsGCN is a tiny indirection so verify.go does not import the models
// package at top level twice.
func modelsGCN(d *dataset.Dataset, hidden int, rng *tensor.RNG) *nau.Model {
	return factoryFor(d, baseline.Spec{Kind: baseline.ModelGCN, Hidden: hidden})(rng)
}

func simEpochTime(d *dataset.Dataset, spec baseline.Spec, k int, seed uint64) time.Duration {
	sim, err := cluster.NewSimulation(d, factoryFor(d, spec), cluster.SimConfig{
		NumWorkers: k, Pipeline: true, Seed: seed,
	})
	if err != nil {
		return 0
	}
	if _, err := sim.Epoch(); err != nil {
		return 0
	}
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		res, err := sim.Epoch()
		if err != nil {
			return 0
		}
		if res.EpochTime < best {
			best = res.EpochTime
		}
	}
	return best
}

func kernelTime(fn func()) time.Duration {
	fn() // warm-up
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// FormatVerify renders the check list; the second result reports overall
// success.
func FormatVerify(checks []Check) (string, bool) {
	var b strings.Builder
	ok := true
	b.WriteString("Reproduction shape verification\n")
	for _, c := range checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
			ok = false
		}
		fmt.Fprintf(&b, "  [%s] %-42s %s\n", status, c.Name, c.Detail)
	}
	return b.String(), ok
}
