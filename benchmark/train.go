package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/nau"
	"repro/internal/tensor"
	"repro/internal/trace"
)

const (
	// warmEpochs run untimed inside set-up: the first builds the HDG, plans
	// and buffer pools, the second runs on warm pools.
	warmEpochs = 2
	// hashEpochs is how many losses (warm-up included) loss_hash covers: a
	// fixed prefix, because the epoch count of a timed run varies.
	hashEpochs = 6
)

// trainInst is one single-machine trainer after its warm-up epochs.
type trainInst struct {
	d      *dataset.Dataset
	tr     *nau.Trainer
	losses []float32
}

// newTrainInst generates the dataset, builds model and trainer from the seed
// and runs the warm-up epochs. tracer is the program's own tracer (nil = off).
func newTrainInst(e *env, parent uint64, tracer *trace.Tracer) (*trainInst, error) {
	sp := e.span(parent, "dataset", "generate")
	d, err := e.spec.generate(e.seed, e.tiny)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = e.span(parent, "nau", "new_trainer")
	model := e.spec.factory(d)(tensor.NewRNG(e.seed))
	tr := nau.NewTrainerWith(model, nau.TrainerOptions{
		Graph: d.Graph, Features: d.Features, Labels: d.Labels, TrainMask: d.TrainMask,
		Seed: e.seed, Tracer: tracer,
	})
	sp.End()
	ti := &trainInst{d: d, tr: tr}
	for i := 0; i < warmEpochs; i++ {
		if _, err := ti.epoch(e, parent); err != nil {
			return nil, err
		}
	}
	return ti, nil
}

// epoch runs one Trainer.Epoch under a bench span and returns its seconds.
func (ti *trainInst) epoch(e *env, parent uint64) (float64, error) {
	sp := e.span(parent, "nau", "epoch")
	t0 := time.Now()
	loss, err := ti.tr.Epoch()
	secs := time.Since(t0).Seconds()
	sp.End()
	if err != nil {
		return 0, fmt.Errorf("epoch %d: %w", len(ti.losses)+1, err)
	}
	ti.losses = append(ti.losses, loss)
	return secs, nil
}

// minTimed is the fewest epochs a round times, so that loss_hash always
// covers hashEpochs losses.
const minTimed = hashEpochs - warmEpochs

// run times epochs back to back until dur has passed (at least minEpochs) and
// returns each one's seconds.
func (ti *trainInst) run(e *env, parent uint64, dur time.Duration, minEpochs int) ([]float64, error) {
	sp := e.span(parent, "bench", "timed")
	defer sp.End()
	var epochs []float64
	start := time.Now()
	for len(epochs) < minEpochs || time.Since(start) < dur {
		s, err := ti.epoch(e, sp.ID())
		if err != nil {
			return nil, err
		}
		epochs = append(epochs, s)
	}
	return epochs, nil
}

// bookEpochs books timed epochs with the meter: each is an operation, and
// each trained rootVertices root vertices.
func (e *env) bookEpochs(m *meter, epochs []float64, rootVertices int, slow float64) {
	ms := make([]float64, len(epochs))
	for i, s := range epochs {
		ms[i] = s * 1000
	}
	m.ops(ms, float64(rootVertices*len(epochs)), sum(epochs), slow)
	e.ops += len(epochs)
	e.detail["op"] = "epoch"
	e.detail["throughput_unit"] = "root vertices/s"
}

// checkLosses applies the training correctness checks: every loss finite, the
// last below the first, and the fixed-prefix hash recorded for comparison
// across runs of the same seed.
func (e *env) checkLosses(losses []float32) {
	for i, l := range losses {
		if math.IsNaN(float64(l)) || math.IsInf(float64(l), 0) {
			e.fail("loss of epoch %d is not finite: %v", i+1, l)
		}
	}
	if n := len(losses); n < 2 || !(losses[n-1] < losses[0]) {
		e.fail("training did not reduce the loss: first %v, last %v", losses[0], losses[len(losses)-1])
	}
	e.detail["loss_first"] = losses[0]
	e.detail["loss_last"] = losses[len(losses)-1]
	e.detail["loss_hash"] = lossHash(losses)
}

// lossHash is the FNV-1a hash of the first hashEpochs losses' float32 bits.
func lossHash(losses []float32) string {
	if len(losses) > hashEpochs {
		losses = losses[:hashEpochs]
	}
	h := fnv.New64a()
	var b [4]byte
	for _, l := range losses {
		u := math.Float32bits(l)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// sameLosses checks that a round repeated the first round's losses bit for
// bit, as far as both went — the in-run half of the repeatability check.
func (e *env) sameLosses(st *roundState, losses []float32) {
	if st.losses == nil {
		st.losses = losses
		return
	}
	for i := 0; i < min(len(st.losses), len(losses)); i++ {
		if math.Float32bits(st.losses[i]) != math.Float32bits(losses[i]) {
			e.fail("rounds of one seed diverged at epoch %d: loss %v vs %v", i+1, st.losses[i], losses[i])
			return
		}
	}
}

// trainChunks is how many stretches a round's timed epochs are split into;
// the host is read between them, while no epoch runs.
const trainChunks = 4

// trainRound is one round of a single-machine training workload: a fresh
// dataset, model and trainer with their warm-up epochs, then timed epochs.
func trainRound(e *env, m *meter, st *roundState, _ int, slice time.Duration) error {
	t0 := time.Now()
	ti, err := newTrainInst(e, 0, nil)
	if err != nil {
		return err
	}
	m.setup(time.Since(t0).Seconds(), m.interval())
	for c := 0; c < trainChunks; c++ {
		epochs, err := ti.run(e, 0, slice/trainChunks, minTimed/trainChunks)
		if err != nil {
			return err
		}
		e.bookEpochs(m, epochs, ti.d.Graph.NumVertices(), m.interval())
	}
	e.sameLosses(st, ti.losses)
	e.checkLosses(ti.losses)
	return nil
}

// trainLayers runs the workload's dataset and model on a single-machine
// Trainer with the program's tracer on and reads the Table-4 stage split from
// Trainer.Breakdown. For a training workload (own) it first times an untraced
// slice of the same length, so the caller can price the tracer.
func trainLayers(e *env, parent uint64, own bool, tracer *trace.Tracer) (untraced, traced []float64, err error) {
	sp := e.span(parent, "nau", "train_layers")
	defer sp.End()
	dur := e.slice(own)
	if own {
		base, err := newTrainInst(e, sp.ID(), nil)
		if err != nil {
			return nil, nil, err
		}
		if untraced, err = base.run(e, sp.ID(), dur, 3); err != nil {
			return nil, nil, err
		}
	}
	ti, err := newTrainInst(e, sp.ID(), tracer)
	if err != nil {
		return nil, nil, err
	}
	ti.tr.Breakdown.Reset()
	traced, err = ti.run(e, sp.ID(), dur, 3)
	if err != nil {
		return nil, nil, err
	}
	n := float64(len(traced))
	bd := ti.tr.Breakdown
	epochSum := sum(traced)
	stages := map[string]metrics.Stage{
		"nau.stage_selection_s":   metrics.StageNeighborSelection,
		"nau.stage_aggregation_s": metrics.StageAggregation,
		"nau.stage_update_s":      metrics.StageUpdate,
		"nau.stage_backward_s":    metrics.StageBackward,
	}
	var stageSum float64
	for name, st := range stages {
		s := bd.Get(st).Seconds()
		stageSum += s
		e.metrics[name] = s / n
	}
	e.metrics["nau.selection_frac"] = bd.Get(metrics.StageNeighborSelection).Seconds() / epochSum
	e.metrics["nau.unattributed_frac"] = 1 - stageSum/epochSum
	if own {
		e.ops += len(untraced) + len(traced)
		e.checkLosses(ti.losses)
	}
	return untraced, traced, nil
}
