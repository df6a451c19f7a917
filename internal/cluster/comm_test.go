package cluster

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// TestGradientBytesBoundedByTwicePayload asserts the headline property of
// the ring: each worker ships at most 2·|payload| gradient bytes per epoch
// regardless of k.
func TestGradientBytesBoundedByTwicePayload(t *testing.T) {
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 32})
	const epochs, k = 3, 4
	// |payload| = all parameter words + loss and mask-count slots + the
	// k·StageCount stage-seconds tail carrying the straggler report.
	words := 2 + k*metrics.StageCount
	for _, p := range gcnFactory(d)(tensor.NewRNG(33)).Parameters() {
		words += p.Data.Len()
	}
	payload := int64(4 * words * epochs)
	// 5% headroom covers per-chunk frame headers.
	ringBound := payload*2 + payload/20

	res, err := Train(Config{NumWorkers: k, Pipeline: true,
		Epochs: epochs, Seed: 33}, d, gcnFactory(d))
	if err != nil {
		t.Fatal(err)
	}
	for rank, bd := range res.PerWorker {
		got := bd.SentBytes(metrics.ClassGrads)
		if got == 0 || got > ringBound {
			t.Fatalf("ring k=%d rank=%d: %d gradient bytes, want (0, %d]", k, rank, got, ringBound)
		}
	}
}

// TestPerKindTrafficSplit checks that the Fig.15-style accounting actually
// splits traffic by kind: a pipelined run moves plan, partial-aggregation
// and gradient bytes; a raw run moves plan, feature and gradient bytes.
func TestPerKindTrafficSplit(t *testing.T) {
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 34})
	for _, pipeline := range []bool{true, false} {
		res, err := Train(Config{NumWorkers: 3, Pipeline: pipeline,
			Epochs: 2, Seed: 35}, d, gcnFactory(d))
		if err != nil {
			t.Fatal(err)
		}
		m := res.Merged
		if m.SentBytes(metrics.ClassPlan) == 0 {
			t.Fatalf("pipeline=%v: no plan bytes", pipeline)
		}
		if m.SentBytes(metrics.ClassGrads) == 0 {
			t.Fatalf("pipeline=%v: no gradient bytes", pipeline)
		}
		data := m.SentBytes(metrics.ClassPartials) + m.SentBytes(metrics.ClassFeatures)
		if data == 0 {
			t.Fatalf("pipeline=%v: no feature/partial bytes", pipeline)
		}
		// Sent and received must agree globally (every message is consumed).
		var sent, recv int64
		for c := metrics.MsgClass(0); c < metrics.NumMsgClasses; c++ {
			sent += m.SentBytes(c)
			recv += m.RecvBytes(c)
		}
		if sent != recv || sent != m.BytesSent.Load() {
			t.Fatalf("pipeline=%v: sent %d, recv %d, total %d", pipeline, sent, recv, m.BytesSent.Load())
		}
	}
}
