package flexgraph

// This file holds one testing.B benchmark per table and figure of the
// paper's evaluation (§7), plus ablation benches for the design choices
// DESIGN.md calls out. Each bench regenerates the corresponding result at a
// reduced scale; `cmd/flexbench` produces the full formatted tables.
//
//	go test -bench=. -benchmem
//
// The per-iteration work of a Table/Figure bench is one full experiment
// epoch (or one experiment sweep for multi-point figures), so ns/op tracks
// the quantity the paper reports.

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/hdg"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// benchScale keeps `go test -bench .` fast; cmd/flexbench defaults to 0.5.
const benchScale = 0.15

func benchOptions() bench.Options {
	return bench.Options{Scale: benchScale, Epochs: 1, Seed: 1}
}

// --------------------------------------------------------------------------
// Table 1: dataset generation.

func BenchmarkTable1_DatasetGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := bench.Table1(benchOptions()); len(rows) != 4 {
			b.Fatal("table 1 must have 4 rows")
		}
	}
}

// --------------------------------------------------------------------------
// Table 2: single-machine epoch time per (model, system). One bench per
// system on the Reddit-shaped dataset; the full sweep is in cmd/flexbench.

func benchTable2(b *testing.B, ex baseline.Executor, kind baseline.ModelKind) {
	b.Helper()
	d := dataset.RedditLike(dataset.Config{Scale: benchScale, Seed: 1})
	spec := baseline.DefaultSpec(kind)
	if !ex.Supports(kind) {
		b.Skipf("%s does not support %s (Table 2 'X')", ex.Name(), kind)
	}
	if _, err := ex.Epoch(d, spec); err != nil { // warm-up
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Epoch(d, spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_GCN_PyTorch(b *testing.B) { benchTable2(b, baseline.PyTorch{}, baseline.ModelGCN) }
func BenchmarkTable2_GCN_DGL(b *testing.B)     { benchTable2(b, baseline.DGL{}, baseline.ModelGCN) }
func BenchmarkTable2_GCN_DistDGL(b *testing.B) {
	benchTable2(b, baseline.NewDistDGL(), baseline.ModelGCN)
}
func BenchmarkTable2_GCN_Euler(b *testing.B) { benchTable2(b, baseline.NewEuler(), baseline.ModelGCN) }
func BenchmarkTable2_GCN_FlexGraph(b *testing.B) {
	benchTable2(b, baseline.NewFlexGraph(), baseline.ModelGCN)
}

func BenchmarkTable2_PinSage_PyTorch(b *testing.B) {
	benchTable2(b, baseline.PyTorch{}, baseline.ModelPinSage)
}
func BenchmarkTable2_PinSage_DGL(b *testing.B) { benchTable2(b, baseline.DGL{}, baseline.ModelPinSage) }
func BenchmarkTable2_PinSage_DistDGL(b *testing.B) {
	benchTable2(b, baseline.NewDistDGL(), baseline.ModelPinSage)
}
func BenchmarkTable2_PinSage_Euler(b *testing.B) {
	benchTable2(b, baseline.NewEuler(), baseline.ModelPinSage)
}
func BenchmarkTable2_PinSage_FlexGraph(b *testing.B) {
	benchTable2(b, baseline.NewFlexGraph(), baseline.ModelPinSage)
}

func BenchmarkTable2_MAGNN_PyTorch(b *testing.B) {
	benchTable2(b, baseline.PyTorch{}, baseline.ModelMAGNN)
}
func BenchmarkTable2_MAGNN_FlexGraph(b *testing.B) {
	benchTable2(b, baseline.NewFlexGraph(), baseline.ModelMAGNN)
}

// --------------------------------------------------------------------------
// Table 3: Pre+DGL vs FlexGraph (pre-computation excluded via warm-up).

func BenchmarkTable3_PinSage_PreDGL(b *testing.B) {
	benchTable2(b, baseline.NewPreExpand(), baseline.ModelPinSage)
}
func BenchmarkTable3_MAGNN_PreDGL(b *testing.B) {
	benchTable2(b, baseline.NewPreExpand(), baseline.ModelMAGNN)
}

// --------------------------------------------------------------------------
// Table 4: NAU stage breakdown (one epoch of each model on Twitter).

func BenchmarkTable4_Breakdown(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := bench.Table4(o)
		if len(rows) != 3 {
			b.Fatal("table 4 must have 3 rows")
		}
		// Shape assertion: GCN spends nothing in NeighborSelection.
		if sel, _, _ := rows[0].Fractions(); sel != 0 {
			b.Fatalf("GCN selection fraction = %v", sel)
		}
	}
}

// --------------------------------------------------------------------------
// Table 5: HDG construction + memory footprint accounting.

func BenchmarkTable5_HDGFootprint(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := bench.Table5(o)
		for _, r := range rows {
			if r.HDGBytes <= 0 || r.Graph <= 0 {
				b.Fatalf("bad footprint row %+v", r)
			}
		}
	}
}

// --------------------------------------------------------------------------
// Figure 13: simulated scaling (one epoch at k=8 per iteration; the sweep
// over k is in cmd/flexbench).

func benchFig13(b *testing.B, kind baseline.ModelKind, workers int) {
	b.Helper()
	d := dataset.RedditLike(dataset.Config{Scale: benchScale, Seed: 1, FeatureDim: 128})
	spec := baseline.DefaultSpec(kind)
	factory := benchFactory(d, spec)
	sim, err := cluster.NewSimulation(d, factory, cluster.SimConfig{
		NumWorkers: workers, Pipeline: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sim.Epoch(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Epoch(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFactory(d *dataset.Dataset, spec baseline.Spec) cluster.ModelFactory {
	return func(rng *tensor.RNG) *Model {
		switch spec.Kind {
		case baseline.ModelGCN:
			return NewGCN(d.FeatureDim(), spec.Hidden, d.NumClasses, rng)
		case baseline.ModelPinSage:
			return NewPinSage(d.FeatureDim(), spec.Hidden, d.NumClasses, spec.PinSage, rng)
		default:
			return NewMAGNN(d.FeatureDim(), spec.Hidden, d.NumClasses, d.Metapaths, spec.MAGNN, rng)
		}
	}
}

func BenchmarkFig13_GCN_k1(b *testing.B)     { benchFig13(b, baseline.ModelGCN, 1) }
func BenchmarkFig13_GCN_k8(b *testing.B)     { benchFig13(b, baseline.ModelGCN, 8) }
func BenchmarkFig13_PinSage_k8(b *testing.B) { benchFig13(b, baseline.ModelPinSage, 8) }
func BenchmarkFig13_MAGNN_k1(b *testing.B)   { benchFig13(b, baseline.ModelMAGNN, 1) }
func BenchmarkFig13_MAGNN_k8(b *testing.B)   { benchFig13(b, baseline.ModelMAGNN, 8) }
func BenchmarkFig13_MAGNN_k16(b *testing.B)  { benchFig13(b, baseline.ModelMAGNN, 16) }

// --------------------------------------------------------------------------
// Figure 14: the SA / SA+FA / HA hybrid-aggregation ablation (aggregation
// stage of one epoch).

func benchFig14(b *testing.B, kind baseline.ModelKind, strat engine.Strategy) {
	b.Helper()
	d := dataset.FB91Like(dataset.Config{Scale: benchScale, Seed: 1})
	spec := baseline.DefaultSpec(kind)
	fg := baseline.NewFlexGraph()
	fg.Strategy = strat
	tr, err := fg.Trainer(d, spec)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tr.Epoch(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Epoch(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(tr.Breakdown.Get(metrics.StageAggregation).Seconds()/float64(b.N+1), "aggsec/op")
}

func BenchmarkFig14_GCN_SA(b *testing.B)     { benchFig14(b, baseline.ModelGCN, engine.StrategySA) }
func BenchmarkFig14_GCN_SAFA(b *testing.B)   { benchFig14(b, baseline.ModelGCN, engine.StrategySAFA) }
func BenchmarkFig14_GCN_HA(b *testing.B)     { benchFig14(b, baseline.ModelGCN, engine.StrategyHA) }
func BenchmarkFig14_MAGNN_SA(b *testing.B)   { benchFig14(b, baseline.ModelMAGNN, engine.StrategySA) }
func BenchmarkFig14_MAGNN_SAFA(b *testing.B) { benchFig14(b, baseline.ModelMAGNN, engine.StrategySAFA) }
func BenchmarkFig14_MAGNN_HA(b *testing.B)   { benchFig14(b, baseline.ModelMAGNN, engine.StrategyHA) }

// --------------------------------------------------------------------------
// Figure 15a: workload balancing (one simulated epoch under each
// partitioner).

func benchFig15a(b *testing.B, pname string) {
	b.Helper()
	d := dataset.TwitterLike(dataset.Config{Scale: benchScale, Seed: 1, FeatureDim: 128})
	const k = 8
	n := d.Graph.NumVertices()
	cost := make([]float64, n)
	for v := 0; v < n; v++ {
		cost[v] = 1 + float64(d.Graph.InDegree(int32(v)))
	}
	var p *partition.Partitioning
	switch pname {
	case "hash":
		p = partition.Hash(n, k)
	case "pulp":
		p = partition.LabelProp(d.Graph, k, 5, 1.2, 1)
	case "adb":
		p = partition.DefaultADB().Rebalance(d.Graph, partition.Hash(n, k), cost)
	}
	spec := baseline.DefaultSpec(baseline.ModelMAGNN)
	sim, err := cluster.NewSimulation(d, benchFactory(d, spec), cluster.SimConfig{
		NumWorkers: k, Pipeline: true, Partitioning: p, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sim.Epoch(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Epoch(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15a_MAGNN_PuLP(b *testing.B) { benchFig15a(b, "pulp") }
func BenchmarkFig15a_MAGNN_Hash(b *testing.B) { benchFig15a(b, "hash") }
func BenchmarkFig15a_MAGNN_ADB(b *testing.B)  { benchFig15a(b, "adb") }

// --------------------------------------------------------------------------
// Figures 15b/15c: pipeline processing on/off.

func benchFig15Pipeline(b *testing.B, pipeline bool) {
	b.Helper()
	d := dataset.FB91Like(dataset.Config{Scale: benchScale, Seed: 1, FeatureDim: 128})
	spec := baseline.DefaultSpec(baseline.ModelGCN)
	sim, err := cluster.NewSimulation(d, benchFactory(d, spec), cluster.SimConfig{
		NumWorkers: 8, Pipeline: pipeline, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sim.Epoch(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var agg float64
	for i := 0; i < b.N; i++ {
		res, err := sim.Epoch()
		if err != nil {
			b.Fatal(err)
		}
		agg += res.AggTime.Seconds()
	}
	b.ReportMetric(agg/float64(b.N), "aggsec/op")
}

func BenchmarkFig15_Pipeline_On(b *testing.B)  { benchFig15Pipeline(b, true) }
func BenchmarkFig15_Pipeline_Off(b *testing.B) { benchFig15Pipeline(b, false) }

// --------------------------------------------------------------------------
// Ablation benches for DESIGN.md's design decisions.

// Ablation 1 (Fig. 14 companion): fused vs scatter aggregation on a raw
// adjacency, isolating the §4.2 feature-fusion claim from model overhead.
func benchAggregation(b *testing.B, fused bool) {
	b.Helper()
	d := dataset.RedditLike(dataset.Config{Scale: benchScale, Seed: 1, FeatureDim: 128})
	adj := engine.FromGraphInEdges(d.Graph)
	feats := nn.Constant(d.Features)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fused {
			engine.FusedAggregate(adj, feats, tensor.ReduceSum)
		} else {
			engine.ScatterAggregate(adj, feats, tensor.ReduceSum)
		}
	}
}

func BenchmarkAblation_FusedAggregate(b *testing.B)   { benchAggregation(b, true) }
func BenchmarkAblation_ScatterAggregate(b *testing.B) { benchAggregation(b, false) }

// Ablation 2: §4.1's compact HDG storage vs a naive per-level CSC layout.
func BenchmarkAblation_HDGStorage(b *testing.B) {
	d := dataset.IMDBLike(dataset.Config{Scale: benchScale, Seed: 1})
	spec := baseline.DefaultSpec(baseline.ModelMAGNN)
	fg := baseline.NewFlexGraph()
	tr, err := fg.Trainer(d, spec)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tr.Forward(false); err != nil {
		b.Fatal(err)
	}
	h := tr.HDG()
	compact, naive := h.NumBytes(), h.NumBytesNaive()
	if compact >= naive {
		b.Fatalf("compact storage %d not smaller than naive %d", compact, naive)
	}
	b.ReportMetric(float64(compact)/float64(naive), "compact/naive")
	for i := 0; i < b.N; i++ {
		_ = h.NumBytes()
	}
}

// Ablation 3: SIMD (the AVX2 kernels of internal/tensor/simd_amd64.s, or the
// 8-wide unrolled Go loops where they do not run) vs one-element scalar inner
// loops, the §6 feature-fusion acceleration.
func benchSIMD(b *testing.B, aggregate func(*engine.Adjacency, *nn.Value, tensor.ReduceOp) *nn.Value) {
	b.Helper()
	d := dataset.RedditLike(dataset.Config{Scale: benchScale, Seed: 1, FeatureDim: 256})
	adj := engine.FromGraphInEdges(d.Graph)
	feats := nn.Constant(d.Features)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aggregate(adj, feats, tensor.ReduceSum)
	}
}

func BenchmarkAblation_SIMDKernels(b *testing.B)   { benchSIMD(b, engine.FusedAggregate) }
func BenchmarkAblation_ScalarKernels(b *testing.B) { benchSIMD(b, engine.FusedAggregateScalar) }

// Ablation 4: dense reshape+reduce vs sparse scatter at the schema level
// (Fig. 10).
func benchSchemaLevel(b *testing.B, strat engine.Strategy) {
	b.Helper()
	const roots, types, dim = 20000, 6, 64
	schema := make([]string, types)
	for i := range schema {
		schema[i] = string(rune('a' + i))
	}
	var recs []hdg.Record
	for r := 0; r < roots; r++ {
		for t := 0; t < types; t++ {
			recs = append(recs, hdg.Record{Root: int32(r), Nei: []int32{int32(r)}, Type: t})
		}
	}
	rootsList := make([]int32, roots)
	for i := range rootsList {
		rootsList[i] = int32(i)
	}
	h, err := hdg.Build(hdg.NewSchemaTree(schema...), rootsList, recs)
	if err != nil {
		b.Fatal(err)
	}
	rng := tensor.NewRNG(1)
	slotFeats := nn.Constant(tensor.RandN(rng, 1, roots*types, dim))
	e := engine.New(strat)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AggregateSchema(h, slotFeats, tensor.ReduceMean)
	}
}

func BenchmarkAblation_SchemaLevelDense(b *testing.B)  { benchSchemaLevel(b, engine.StrategyHA) }
func BenchmarkAblation_SchemaLevelSparse(b *testing.B) { benchSchemaLevel(b, engine.StrategySAFA) }

// Ablation 5: partial aggregation + batched messages vs naive raw shipping
// is covered by BenchmarkFig15_Pipeline_{On,Off} above; this bench isolates
// the partial-sum kernel itself.
func BenchmarkAblation_PartialAggregate(b *testing.B) {
	rng := tensor.NewRNG(1)
	feats := tensor.RandN(rng, 1, 4096, 128)
	tasks := make([]cluster.Task, 1024)
	for i := range tasks {
		leaves := make([]int32, 8)
		for j := range leaves {
			leaves[j] = int32(rng.Intn(4096))
		}
		tasks[i] = cluster.Task{Dst: int32(i), Leaves: leaves}
	}
	data := make([]float32, len(tasks)*feats.Cols())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.PartialAggregate(tasks, feats, data)
	}
}
