package cluster

import (
	"context"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/store"
)

// miniBatchEpoch runs one epoch of data-parallel mini-batch training. Each
// worker streams batches over its own partition through the prefetching
// sampler; every round ends in a fenced gradient all-reduce (phase = round
// index) and an optimizer step, so replicas stay bit-identical across
// ranks. Workers whose partitions ran out pad the remaining rounds with
// zero gradients and zero loss weight — the masked-count weighting makes a
// padded rank a no-op in the global average while it still joins the
// collective.
//
// The trainer only ever blocks in Stream.Next (recorded as
// StageNeighborSelection and in the sample_wait_ns histogram); with
// PrefetchDepth > 0 the next rounds' sampling and feature gathering overlap
// this round's forward/backward.
func (w *worker) miniBatchEpoch() (float32, error) {
	batches := chunkRoots(w.prog.Roots, w.mbBatch)
	st := w.sampler.Epoch(context.Background(), w.prog.Epoch, batches)
	defer st.Close()

	var globalLoss float32
	for r := 0; r < w.mbRounds; r++ {
		// The abort fence tracks the round so a failing worker names the
		// collective its peers are blocked in.
		w.aggCalls = int32(r)
		var lossVal float32
		masked := 0
		if r < len(batches) {
			start := time.Now()
			bt, err := st.Next()
			w.breakdown.Add(metrics.StageNeighborSelection, time.Since(start))
			if err != nil {
				return 0, err
			}
			probe := nau.Probe{Timer: w.breakdown, Tracer: w.tracer, Rank: int32(w.rank), Epoch: w.epoch()}
			logits, err := store.ForwardWith(w.mbCtx, probe, w.prog.Model, bt)
			if err != nil {
				return 0, err
			}
			// Roots are the prefix of the batch universe, so the first
			// len(Roots) label/mask rows are exactly the batch targets.
			nb := len(bt.Roots)
			lossV := nn.CrossEntropy(logits, bt.Labels[:nb], bt.Mask[:nb])
			for i := 0; i < nb; i++ {
				if bt.Mask[i] {
					masked++
				}
			}
			w.breakdown.Time(metrics.StageBackward, func() {
				w.prog.Opt.ZeroGrad()
				lossV.Backward()
				// Parameter gradients are leaves; the batch's activations
				// are done once they exist.
				nn.ReleaseGraph(lossV)
			})
			lossVal = lossV.Data.At(0, 0)
			// The tape is gone, so nothing reads the batch any more: the
			// sampler rebuilds a later batch in its storage.
			st.Release(bt)
		} else {
			// Padding round: zero gradients, zero weight.
			w.prog.Opt.ZeroGrad()
		}
		g, err := w.syncGradients(lossVal, masked, int32(r))
		if err != nil {
			return 0, err
		}
		w.breakdown.Time(metrics.StageBackward, func() {
			w.prog.Opt.Step()
		})
		globalLoss = g
	}
	w.prog.Epoch++ // as the program's Step ends a whole-graph epoch
	return globalLoss, nil
}

// chunkRoots splits roots into sequential batches of at most size vertices.
func chunkRoots(roots []graph.VertexID, size int) [][]graph.VertexID {
	var out [][]graph.VertexID
	for start := 0; start < len(roots); start += size {
		end := start + size
		if end > len(roots) {
			end = len(roots)
		}
		out = append(out, roots[start:end])
	}
	return out
}
