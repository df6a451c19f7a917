package cluster

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rpc"
)

// TestRunWorkerOverTCP trains a real 2-worker cluster over localhost TCP
// sockets and checks that (a) both workers report the same global loss,
// (b) the result matches the loopback cluster, exercising the full
// multi-process path of cmd/flexgraph-worker in-process.
func TestRunWorkerOverTCP(t *testing.T) {
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 21})
	factory := gcnFactory(d)
	cfg := Config{NumWorkers: 2, Pipeline: true, Epochs: 3, Seed: 22}

	// Loopback reference.
	ref, err := Train(cfg, d, factory)
	if err != nil {
		t.Fatal(err)
	}

	// Bring up a 2-node TCP mesh on ephemeral ports. Rank 1 only accepts
	// (lower ranks dial higher ones), so it can start first and rank 0
	// gets its resolved address.
	t1, err := rpc.NewTCPTransport(1, []string{"unused", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	t0, err := rpc.NewTCPTransport(0, []string{"127.0.0.1:0", t1.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()

	var wg sync.WaitGroup
	losses := make([][]float32, 2)
	errs := make([]error, 2)
	for rank, tr := range []*rpc.TCPTransport{t0, t1} {
		wg.Add(1)
		go func(rank int, tr *rpc.TCPTransport) {
			defer wg.Done()
			if err := tr.Connect(); err != nil {
				errs[rank] = err
				return
			}
			losses[rank], _, errs[rank] = RunWorker(cfg, d, factory, tr)
		}(rank, tr)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", rank, err)
		}
	}
	for epoch := range losses[0] {
		if losses[0][epoch] != losses[1][epoch] {
			t.Fatalf("epoch %d: workers disagree on global loss: %v vs %v",
				epoch, losses[0][epoch], losses[1][epoch])
		}
		if diff := math.Abs(float64(losses[0][epoch] - ref.Losses[epoch])); diff > 1e-3 {
			t.Fatalf("epoch %d: TCP loss %v != loopback loss %v",
				epoch, losses[0][epoch], ref.Losses[epoch])
		}
	}
}
