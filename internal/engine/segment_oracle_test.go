package engine

// Oracle for the intermediate HDG level. The engine runs it as segment
// kernels over HDG.InstOffset; the graphs below are the scatter compositions
// those kernels replaced — the instance → slot index materialised
// (hdg.InstanceSlots), then nn's generic index-scan nodes. Forward values and
// both parents' gradients must agree bit for bit (any NaN equals any NaN: a
// produced NaN's payload is the hardware's choice), at every parallelism and
// under every Strategy. Do not move these
// compositions onto the segment kernels; they are the specification.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/hdg"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func oracleSoftmaxWeighted(h *hdg.HDG, scores, inst *nn.Value) *nn.Value {
	slots, n := h.InstanceSlots(), h.NumRoots()*h.NumTypes()
	att := nn.ScatterSoftmax(scores, slots, n)
	return nn.ScatterAdd(nn.MulBroadcast(att, inst), slots, n)
}

// oracleAttention is the three-node graph Engine.Attention fuses: the scorer
// tanh(inst @ a) as generic nodes, then the scatter composition above.
func oracleAttention(h *hdg.HDG, inst, a *nn.Value) *nn.Value {
	return oracleSoftmaxWeighted(h, nn.Tanh(nn.MatMul(inst, a)), inst)
}

func oracleIntermediate(h *hdg.HDG, inst *nn.Value, op tensor.ReduceOp) *nn.Value {
	slots, n := h.InstanceSlots(), h.NumRoots()*h.NumTypes()
	switch op {
	case tensor.ReduceSum:
		return nn.ScatterAdd(inst, slots, n)
	case tensor.ReduceMean:
		return nn.ScatterMean(inst, slots, n)
	case tensor.ReduceMax:
		return nn.ScatterMax(inst, slots, n)
	default:
		return nn.ScatterMin(inst, slots, n)
	}
}

// slotHDG builds a hierarchical HDG whose slot s holds counts[s] instances
// (counts is roots-major, types within a root).
func slotHDG(tb testing.TB, numTypes int, counts []int) *hdg.HDG {
	tb.Helper()
	names := make([]string, numTypes)
	for i := range names {
		names[i] = fmt.Sprintf("MP%d", i)
	}
	roots := make([]graph.VertexID, len(counts)/numTypes)
	var recs []hdg.Record
	for s, n := range counts {
		r := graph.VertexID(s / numTypes)
		roots[r] = r
		for ; n > 0; n-- {
			recs = append(recs, hdg.Record{Root: r, Nei: []graph.VertexID{r, r}, Type: s % numTypes})
		}
	}
	h, err := hdg.Build(hdg.NewSchemaTree(names...), roots, recs)
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

// ragged draws slot sizes with every shape the walk special-cases: empty
// slots (runs of them, and at both ends), single-instance slots, and a few
// long ones so the weighted split has something to balance.
func ragged(rng *tensor.RNG, slots int) []int {
	counts := make([]int, slots)
	for s := 2; s < slots-2; s++ {
		switch rng.Intn(6) {
		case 0, 1:
		case 2:
			counts[s] = 1
		case 3:
			counts[s] = 20 + rng.Intn(40)
		default:
			counts[s] = 2 + rng.Intn(8)
		}
	}
	return counts
}

func sameBits(t *testing.T, what string, want, got *tensor.Tensor) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
	if want == nil {
		return
	}
	if !want.SameShape(got) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	if i, ok := tensorsBitEqualNaN(want, got); !ok {
		w, g := want.Data()[i], got.Data()[i]
		t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i, g, math.Float32bits(g), w, math.Float32bits(w))
	}
}

// sweepParallelism runs body at parallelism {1, 2, 4} under every strategy.
func sweepParallelism(t *testing.T, body func(cfg string, e *Engine)) {
	defer tensor.SetParallelism(0)
	for _, par := range []int{1, 2, 4} {
		tensor.SetParallelism(par)
		for _, strat := range []Strategy{StrategySA, StrategySAFA, StrategyHA} {
			body(fmt.Sprintf("par=%d %v", par, strat), New(strat))
		}
	}
}

func TestSegmentSoftmaxWeightedMatchesScatterComposition(t *testing.T) {
	rng := tensor.NewRNG(18)
	const types, dim = 3, 19 // odd width: the unrolled kernels run their tails
	h := slotHDG(t, types, ragged(rng, 400*types))
	n := h.NumInstances()
	seed := tensor.RandN(rng, 1, h.NumRoots()*types, dim)
	inputs := []struct {
		name         string
		scores, inst *tensor.Tensor
	}{
		{"finite", tensor.RandN(rng, 1, n, 1), tensor.RandN(rng, 1, n, dim)},
		// specialFeats: a coarse grid full of exact ties plus NaN, ±Inf and -0.
		{"special scores", specialFeats(rng, n, 1), tensor.RandN(rng, 1, n, dim)},
		{"special both", specialFeats(rng, n, 1), specialFeats(rng, n, dim)},
	}
	// Which parents require a gradient: MAGNN's first layer has constant
	// instances under a trained scorer, its second layer trains both.
	grads := [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}}
	run := func(f func(scores, inst *nn.Value) *nn.Value, in int, g [2]bool) (out, dScores, dInst *tensor.Tensor) {
		scores := nn.NewValue(inputs[in].scores.Clone(), g[0])
		inst := nn.NewValue(inputs[in].inst.Clone(), g[1])
		v := f(scores, inst)
		if v.RequiresGrad() {
			v.BackwardWith(seed)
		}
		return v.Data, scores.Grad, inst.Grad
	}
	sweepParallelism(t, func(cfg string, e *Engine) {
		for in := range inputs {
			for _, g := range grads {
				what := fmt.Sprintf("[%s %s grads=%v]", cfg, inputs[in].name, g)
				wantOut, wantDS, wantDI := run(func(s, i *nn.Value) *nn.Value { return oracleSoftmaxWeighted(h, s, i) }, in, g)
				gotOut, gotDS, gotDI := run(func(s, i *nn.Value) *nn.Value { return e.SoftmaxWeighted(h, s, i) }, in, g)
				sameBits(t, what+" forward", wantOut, gotOut)
				sameBits(t, what+" dScores", wantDS, gotDS)
				sameBits(t, what+" dInst", wantDI, gotDI)
			}
		}
	})
}

// TestSegmentAttentionMatchesComposition holds the fused attention node —
// forward, dInst and dA — to oracleAttention at parallelism {1, 2, 4} × buffer
// pooling on/off × every strategy × every combination of which parent
// requires a gradient. Special instance rows (a coarse grid with NaN, ±Inf
// and −0) saturate the tanh into exact score ties and carry NaN scores; a
// special scorer adds −0 and non-finite weights. The node sits under a Scale
// by −1 and the seed has exact zeros, so dOut carries −0: in a one-instance
// slot dZ is +0, and dInst = (−0·1) + (+0 + +0·a_j) is +0 only because of the
// composition's +0.
func TestSegmentAttentionMatchesComposition(t *testing.T) {
	defer tensor.SetBufferPooling(true)
	rng := tensor.NewRNG(45)
	const types, dim = 3, 19 // odd width: the unrolled kernels run their tails
	h := slotHDG(t, types, ragged(rng, 400*types))
	n := h.NumInstances()
	seed := tensor.RandN(rng, 1, h.NumRoots()*types, dim)
	for i := range seed.Data() {
		if rng.Intn(4) == 0 {
			seed.Data()[i] = 0
		}
	}
	inputs := []struct {
		name    string
		inst, a *tensor.Tensor
	}{
		{"finite", tensor.RandN(rng, 1, n, dim), tensor.RandN(rng, 0.3, dim, 1)},
		{"special inst", specialFeats(rng, n, dim), tensor.RandN(rng, 0.3, dim, 1)},
		{"special both", specialFeats(rng, n, dim), specialFeats(rng, dim, 1)},
	}
	grads := [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}}
	run := func(f func(inst, a *nn.Value) *nn.Value, in int, g [2]bool) (out, dInst, dA *tensor.Tensor) {
		inst := nn.NewValue(inputs[in].inst.Clone(), g[0])
		a := nn.NewValue(inputs[in].a.Clone(), g[1])
		v := nn.Scale(f(inst, a), -1)
		if v.RequiresGrad() {
			v.BackwardWith(seed)
		}
		return v.Data, inst.Grad, a.Grad
	}
	for _, pooling := range []bool{true, false} {
		tensor.SetBufferPooling(pooling)
		sweepParallelism(t, func(cfg string, e *Engine) {
			for in := range inputs {
				for _, g := range grads {
					what := fmt.Sprintf("[pooling=%v %s %s grads=%v]", pooling, cfg, inputs[in].name, g)
					wantOut, wantDI, wantDA := run(func(i, a *nn.Value) *nn.Value { return oracleAttention(h, i, a) }, in, g)
					gotOut, gotDI, gotDA := run(func(i, a *nn.Value) *nn.Value { return e.Attention(h, i, a) }, in, g)
					sameBits(t, what+" forward", wantOut, gotOut)
					sameBits(t, what+" dInst", wantDI, gotDI)
					sameBits(t, what+" dA", wantDA, gotDA)
				}
			}
		})
	}
}

func TestSegmentReduceMatchesScatter(t *testing.T) {
	rng := tensor.NewRNG(81)
	const types, dim = 2, 21
	h := slotHDG(t, types, ragged(rng, 500*types))
	n := h.NumInstances()
	seed := tensor.RandN(rng, 1, h.NumRoots()*types, dim)
	inputs := []*tensor.Tensor{tensor.RandN(rng, 1, n, dim), specialFeats(rng, n, dim)}
	ops := []tensor.ReduceOp{tensor.ReduceSum, tensor.ReduceMean, tensor.ReduceMax, tensor.ReduceMin}
	run := func(f func(inst *nn.Value) *nn.Value, in int, tracked bool) (out, dInst *tensor.Tensor) {
		inst := nn.NewValue(inputs[in].Clone(), tracked)
		v := f(inst)
		if tracked {
			v.BackwardWith(seed)
		}
		return v.Data, inst.Grad
	}
	sweepParallelism(t, func(cfg string, e *Engine) {
		for in := range inputs {
			for _, op := range ops {
				for _, tracked := range []bool{true, false} {
					what := fmt.Sprintf("[%s input %d %v tracked=%v]", cfg, in, op, tracked)
					wantOut, wantDI := run(func(i *nn.Value) *nn.Value { return oracleIntermediate(h, i, op) }, in, tracked)
					gotOut, gotDI := run(func(i *nn.Value) *nn.Value { return e.AggregateIntermediate(h, i, op) }, in, tracked)
					sameBits(t, what+" forward", wantOut, gotOut)
					sameBits(t, what+" dInst", wantDI, gotDI)
				}
			}
		}
	})
}

// An HDG with roots but no instance at all still yields zero slot rows.
func TestSegmentLevelOnEmptyHDG(t *testing.T) {
	h := slotHDG(t, 2, make([]int, 6))
	e := New(StrategyHA)
	inst := nn.Param(tensor.New(0, 4))
	scores := nn.Param(tensor.New(0, 1))
	for _, v := range []*nn.Value{
		e.SoftmaxWeighted(h, scores, inst),
		e.Attention(h, inst, nn.Param(tensor.New(4, 1))),
		e.AggregateIntermediate(h, inst, tensor.ReduceMean),
		e.AggregateIntermediate(h, inst, tensor.ReduceMax),
	} {
		sameBits(t, "empty HDG", tensor.New(6, 4), v.Data)
		v.BackwardWith(tensor.Ones(6, 4))
	}
}

// imdbShapeHDG is the intermediate level of the train_magnn_hetero workload
// (IMDB x 0.7, 20 instances per metapath): 1 428 roots, six metapath types of
// which a root's own vertex type starts two, about 32 500 instances.
func imdbShapeHDG(tb testing.TB) *hdg.HDG {
	rng := tensor.NewRNG(7)
	const roots, types = 1428, 6
	counts := make([]int, roots*types)
	for s := range counts {
		if r, ty := s/types, s%types; ty/2 == r%3 {
			counts[s] = 3 + rng.Intn(18)
		}
	}
	return slotHDG(tb, types, counts)
}

// benchIntermediate times one intermediate level at the train_magnn_hetero
// shape: level gets the [instances, 1] scores, the instances and a [64, 1]
// scorer, all leaves that require a gradient when tracked.
func benchIntermediate(b *testing.B, tracked bool, level func(e *Engine, h *hdg.HDG, scores, inst, a *nn.Value) *nn.Value) {
	h := imdbShapeHDG(b)
	rng := tensor.NewRNG(1)
	instData := tensor.RandN(rng, 1, h.NumInstances(), 64)
	scoreData := tensor.RandN(rng, 1, h.NumInstances(), 1)
	aData := tensor.RandN(rng, 0.1, 64, 1)
	seed := tensor.RandN(rng, 1, h.NumRoots()*h.NumTypes(), 64)
	e := New(StrategyHA)
	step := func() {
		inst, scores, a := nn.NewValue(instData, tracked), nn.NewValue(scoreData, tracked), nn.NewValue(aData, tracked)
		out := level(e, h, scores, inst, a)
		if tracked {
			out.BackwardWith(seed)
			for _, leaf := range []*nn.Value{inst, scores, a} {
				tensor.Recycle(leaf.Grad)
			}
		}
		nn.ReleaseGraph(out)
		tensor.Recycle(out.Data)
	}
	step() // fill the buffer pool: the rows record the steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func BenchmarkSegSoftmaxWeighted(b *testing.B) {
	level := func(e *Engine, h *hdg.HDG, scores, inst, _ *nn.Value) *nn.Value {
		return e.SoftmaxWeighted(h, scores, inst)
	}
	b.Run("fwd", func(b *testing.B) { benchIntermediate(b, false, level) })
	b.Run("fwdbwd", func(b *testing.B) { benchIntermediate(b, true, level) })
}

// BenchmarkSegAttention is MAGNN's whole attention level, scorer included:
// the node nau.Context.Aggregate runs.
func BenchmarkSegAttention(b *testing.B) {
	level := func(e *Engine, h *hdg.HDG, _, inst, a *nn.Value) *nn.Value {
		return e.Attention(h, inst, a)
	}
	b.Run("fwd", func(b *testing.B) { benchIntermediate(b, false, level) })
	b.Run("fwdbwd", func(b *testing.B) { benchIntermediate(b, true, level) })
}

func BenchmarkAggregateIntermediate(b *testing.B) {
	for _, op := range []tensor.ReduceOp{tensor.ReduceMean, tensor.ReduceMax} {
		level := func(e *Engine, h *hdg.HDG, _, inst, _ *nn.Value) *nn.Value {
			return e.AggregateIntermediate(h, inst, op)
		}
		b.Run(op.String()+"/fwd", func(b *testing.B) { benchIntermediate(b, false, level) })
		b.Run(op.String()+"/fwdbwd", func(b *testing.B) { benchIntermediate(b, true, level) })
	}
}
