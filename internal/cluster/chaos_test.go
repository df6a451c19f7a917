package cluster

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rpc"
	"repro/internal/tensor"
)

// runChaosCluster crashes one worker mid-epoch via the fault-injection
// transport and asserts the fail-fast contract: every survivor returns a
// typed *collective.AbortError or *collective.TimeoutError within the
// configured deadline, and nothing hangs.
func runChaosCluster(t *testing.T, transports []rpc.Transport) {
	t.Helper()
	k := len(transports)
	const crashRank = 2
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 21})
	cfg := Config{
		NumWorkers:  k,
		Pipeline:    true,
		Epochs:      4,
		Seed:        22,
		RecvTimeout: 2 * time.Second,
	}
	// The victim's first send of epoch 1 kills its transport: epoch 0
	// completes everywhere, epoch 1 dies mid-flight.
	ft := rpc.NewFaultTransport(transports[crashRank], rpc.FaultConfig{CrashAtFence: true, CrashEpoch: 1})
	transports[crashRank] = ft

	errs := make([]error, k)
	done := make(chan int, k)
	for rank := 0; rank < k; rank++ {
		go func(rank int) {
			_, _, errs[rank] = RunWorker(cfg, d, gcnFactory(d), transports[rank])
			done <- rank
		}(rank)
	}
	// Fail-fast means bounded: the whole cluster must unwind well within the
	// watchdog, not sit in a collective forever.
	watchdog := time.After(60 * time.Second)
	for i := 0; i < k; i++ {
		select {
		case <-done:
		case <-watchdog:
			t.Fatal("cluster hung after the crash — fail-fast teardown failed")
		}
	}

	if !ft.Crashed() {
		t.Fatal("fault transport never crashed")
	}
	if !errors.Is(errs[crashRank], rpc.ErrCrashed) {
		t.Fatalf("victim %d: want ErrCrashed in the chain, got %v", crashRank, errs[crashRank])
	}
	for rank := 0; rank < k; rank++ {
		if rank == crashRank {
			continue
		}
		// Over TCP a survivor can also see the victim's socket die (a reset
		// on read, a broken pipe on write) before any peer's abort frame
		// reaches it: that *net.OpError is the same fail-fast outcome, typed
		// by the transport instead of the collective plane.
		var ae *collective.AbortError
		var te *collective.TimeoutError
		var ne *net.OpError
		if !errors.As(errs[rank], &ae) && !errors.As(errs[rank], &te) && !errors.As(errs[rank], &ne) {
			t.Fatalf("survivor %d: want typed *AbortError, *TimeoutError or *net.OpError, got %v", rank, errs[rank])
		}
	}
}

func TestFailFastOnWorkerCrashLoopback(t *testing.T) {
	const k = 3
	netw := rpc.NewLoopbackNetwork(k)
	defer netw.Close()
	transports := make([]rpc.Transport, k)
	for rank := 0; rank < k; rank++ {
		transports[rank] = netw.Transport(rank)
	}
	runChaosCluster(t, transports)
}

func TestFailFastOnWorkerCrashTCP(t *testing.T) {
	const k = 3
	// Ephemeral-port mesh: bring transports up from rank k-1 down so lower
	// ranks see the resolved addresses of the listeners they must dial.
	addrs := make([]string, k)
	tcp := make([]*rpc.TCPTransport, k)
	for i := k - 1; i >= 0; i-- {
		full := make([]string, k)
		copy(full, addrs)
		full[i] = "127.0.0.1:0"
		for j := 0; j < i; j++ {
			full[j] = "unused"
		}
		tt, err := rpc.NewTCPTransport(i, full)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = tt.Addr()
		tcp[i] = tt
		defer tt.Close()
	}
	connErrs := make(chan error, k)
	for rank := 0; rank < k; rank++ {
		go func(rank int) { connErrs <- tcp[rank].Connect() }(rank)
	}
	for i := 0; i < k; i++ {
		if err := <-connErrs; err != nil {
			t.Fatal(err)
		}
	}
	transports := make([]rpc.Transport, k)
	for rank := 0; rank < k; rank++ {
		transports[rank] = tcp[rank]
	}
	runChaosCluster(t, transports)
}

func TestDecodeTasksRejectsNegativeLeafCount(t *testing.T) {
	// Regression: a corrupt frame carrying a negative leaf count used to pass
	// the i+n bounds check (i+n < i) and panic slicing ids[i : i+n].
	if _, err := decodeTasks([]int32{0, -2, 5}); err == nil {
		t.Fatal("negative leaf count must be an error, not a panic")
	}
	if _, err := decodeTasks([]int32{3, -1}); err == nil {
		t.Fatal("negative leaf count with empty tail must error")
	}
}

func TestRemoteSumRejectsUnknownVertex(t *testing.T) {
	// Regression: a raw-feature row for a vertex outside the plan's remote
	// universe was silently skipped, turning a wire bug into wrong sums.
	plan := &rankPlan{
		local:       &engine.Adjacency{NumDst: 1, NumSrc: 1, DstPtr: []int64{0, 0}},
		remote:      &engine.Adjacency{NumDst: 1, NumSrc: 1, DstPtr: []int64{0, 1}, SrcIdx: []int32{0}},
		remoteIndex: map[graph.VertexID]int32{5: 0},
	}
	localSum := nn.Constant(tensor.New(1, 2))
	good := []*rpc.Message{{From: 1, IDs: []int32{5}, Data: []float32{2, 3}, Dim: 2}}
	out, err := plan.combine(localSum, good, tensor.ReduceSum)
	if err != nil {
		t.Fatalf("known vertex: %v", err)
	}
	if out.Data.At(0, 0) != 2 || out.Data.At(0, 1) != 3 {
		t.Fatalf("remote sum = %v %v", out.Data.At(0, 0), out.Data.At(0, 1))
	}
	bad := []*rpc.Message{{From: 1, IDs: []int32{6}, Data: []float32{2, 3}, Dim: 2}}
	_, err = plan.combine(localSum, bad, tensor.ReduceSum)
	if err == nil || !strings.Contains(err.Error(), "vertex 6") {
		t.Fatalf("unknown vertex must error naming it, got %v", err)
	}
}
