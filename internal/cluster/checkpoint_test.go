package cluster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/nau"
	"repro/internal/nn"
	"repro/internal/rpc"
	"repro/internal/tensor"
)

// ckptBaseCfg is the shared cluster configuration for checkpoint tests.
func ckptBaseCfg(k int, mb *MiniBatchConfig) Config {
	return Config{
		NumWorkers:  k,
		Pipeline:    true,
		Seed:        61,
		RecvTimeout: 2 * time.Second,
		MiniBatch:   mb,
	}
}

func requireLossesEqual(t *testing.T, got, want []float32, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d losses, want %d", what, len(got), len(want))
	}
	for e := range want {
		if got[e] != want[e] {
			t.Fatalf("%s: epoch %d loss %v != reference %v", what, e, got[e], want[e])
		}
	}
}

// TestClusterResumeParity is the cluster-level resume guarantee over the
// in-process loopback runtime: N epochs uninterrupted vs k epochs + fenced
// checkpoint + a fresh cluster resumed from the file running N−k more must
// produce bit-identical per-epoch losses, in whole-graph and mini-batch
// modes, and for a PinSage cached forever, whose resumed ranks must rebuild
// the HDG the uninterrupted run selected at epoch 0.
func TestClusterResumeParity(t *testing.T) {
	const k, split, total = 3, 3, 5
	for _, tc := range []struct {
		name    string
		mb      *MiniBatchConfig
		factory func(*dataset.Dataset) ModelFactory
	}{
		{"whole-graph", nil, gcnFactory},
		{"mini-batch", &MiniBatchConfig{BatchSize: 32, PrefetchDepth: 2, SamplerWorkers: 2}, gcnFactory},
		{"whole-graph/pinsage-forever", nil, func(d *dataset.Dataset) ModelFactory { return pinsageFactory(d, nau.CacheForever) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 41})

			refCfg := ckptBaseCfg(k, tc.mb)
			refCfg.Epochs = total
			ref, err := Train(refCfg, d, tc.factory(d))
			if err != nil {
				t.Fatal(err)
			}

			path := t.TempDir() + "/cluster.fgck"
			firstCfg := ckptBaseCfg(k, tc.mb)
			firstCfg.Epochs = split
			firstCfg.Checkpoint = &CheckpointConfig{Path: path, Every: split}
			first, err := Train(firstCfg, d, tc.factory(d))
			if err != nil {
				t.Fatal(err)
			}
			requireLossesEqual(t, first.Losses, ref.Losses[:split], "pre-checkpoint")

			secondCfg := ckptBaseCfg(k, tc.mb)
			secondCfg.Epochs = total - split
			secondCfg.Resume = path
			second, err := Train(secondCfg, d, tc.factory(d))
			if err != nil {
				t.Fatal(err)
			}
			requireLossesEqual(t, second.Losses, ref.Losses[split:], "resumed")
		})
	}
}

// TestClusterLearningRateConfig pins the Config.LearningRate contract:
// zero keeps the historical 0.01 default bit for bit, an explicit 0.01 is
// identical to the default, and a different rate actually changes training.
func TestClusterLearningRateConfig(t *testing.T) {
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 51})
	run := func(lr float32) []float32 {
		cfg := ckptBaseCfg(2, nil)
		cfg.Epochs = 3
		cfg.LearningRate = lr
		res, err := Train(cfg, d, gcnFactory(d))
		if err != nil {
			t.Fatal(err)
		}
		return res.Losses
	}
	def := run(0)
	requireLossesEqual(t, run(0.01), def, "explicit 0.01 vs default")
	hot := run(0.05)
	same := true
	for e := range def {
		if hot[e] != def[e] {
			same = false
		}
	}
	if same {
		t.Fatal("LearningRate 0.05 produced the same losses as the default — the config is not wired")
	}
}

// loopbackTransports builds a fresh in-process mesh of k transports.
func loopbackTransports(t *testing.T, k int) []rpc.Transport {
	t.Helper()
	netw := rpc.NewLoopbackNetwork(k)
	t.Cleanup(func() { netw.Close() })
	transports := make([]rpc.Transport, k)
	for rank := 0; rank < k; rank++ {
		transports[rank] = netw.Transport(rank)
	}
	return transports
}

// tcpTransports builds a fresh connected ephemeral-port TCP mesh of k
// transports (ranks brought up from k−1 down so lower ranks dial resolved
// listener addresses).
func tcpTransports(t *testing.T, k int) []rpc.Transport {
	t.Helper()
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
		t.Cleanup(func() { tt.Close() })
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
	return transports
}

// runCrashRestartParity is the end-to-end fault-tolerance story: a k=3
// cluster checkpoints every epoch, rank 2's transport is killed mid-epoch,
// the run is restarted from the last durable checkpoint over a FRESH mesh,
// and the concatenation of (losses completed before the crash, losses after
// the restart) must be bit-identical to a run that never crashed.
func runCrashRestartParity(t *testing.T, mb *MiniBatchConfig, mesh func(*testing.T, int) []rpc.Transport) {
	t.Helper()
	const k, total, crashRank = 3, 5, 2
	d := dataset.RedditLike(dataset.Config{Scale: 0.02, Seed: 41})

	// Reference: the run that never crashes.
	refCfg := ckptBaseCfg(k, mb)
	refCfg.Epochs = total
	ref, err := Train(refCfg, d, gcnFactory(d))
	if err != nil {
		t.Fatal(err)
	}

	// Crash run: checkpoint after every epoch; the victim's transport dies
	// on its first layer-1 message of epoch 2, so epochs 0 and 1 complete
	// everywhere (the epoch-boundary checkpoint barriers ride Layer 0 and
	// survive) and the epoch-2 checkpoint never happens.
	path := t.TempDir() + "/cluster.fgck"
	transports := mesh(t, k)
	ft := rpc.NewFaultTransport(transports[crashRank],
		rpc.FaultConfig{CrashAtFence: true, CrashEpoch: 2, CrashPhase: 1})
	transports[crashRank] = ft

	var completedLosses []float32 // appended only from rank 0's epilogue
	crashCfg := ckptBaseCfg(k, mb)
	crashCfg.Epochs = total
	crashCfg.Checkpoint = &CheckpointConfig{Path: path, Every: 1}
	crashCfg.OnEpoch = func(epoch int, loss float32, _ *metrics.BalanceReport) {
		completedLosses = append(completedLosses, loss)
	}
	errs := make([]error, k)
	done := make(chan int, k)
	for rank := 0; rank < k; rank++ {
		go func(rank int) {
			_, _, errs[rank] = RunWorker(crashCfg, d, gcnFactory(d), transports[rank])
			done <- rank
		}(rank)
	}
	watchdog := time.After(60 * time.Second)
	for i := 0; i < k; i++ {
		select {
		case <-done:
		case <-watchdog:
			t.Fatal("cluster hung after the crash")
		}
	}
	if !ft.Crashed() {
		t.Fatal("fault transport never crashed")
	}
	if !errors.Is(errs[crashRank], rpc.ErrCrashed) {
		t.Fatalf("victim: want ErrCrashed, got %v", errs[crashRank])
	}

	// Read back how far the durable state actually got, exactly as an
	// operator's restart script would — never trust the in-memory view of a
	// crashed run.
	probe := gcnFactory(d)(tensor.NewRNG(0))
	st := &nn.TrainState{Params: probe.Parameters()}
	if err := nn.LoadStateFile(path, st); err != nil {
		t.Fatalf("reading the post-crash checkpoint: %v", err)
	}
	completed := st.Epoch
	if completed < 1 || completed >= total {
		t.Fatalf("checkpoint covers %d epochs, want within [1, %d)", completed, total)
	}
	if len(completedLosses) < completed {
		t.Fatalf("rank 0 recorded %d epoch losses, checkpoint claims %d", len(completedLosses), completed)
	}
	requireLossesEqual(t, completedLosses[:completed], ref.Losses[:completed], "pre-crash")

	// Restart over a fresh mesh from the checkpoint; run the remainder.
	restartCfg := ckptBaseCfg(k, mb)
	restartCfg.Epochs = total - completed
	restartCfg.Resume = path
	fresh := mesh(t, k)
	resumed := make([][]float32, k)
	for rank := 0; rank < k; rank++ {
		go func(rank int) {
			resumed[rank], _, errs[rank] = RunWorker(restartCfg, d, gcnFactory(d), fresh[rank])
			done <- rank
		}(rank)
	}
	watchdog = time.After(60 * time.Second)
	for i := 0; i < k; i++ {
		select {
		case <-done:
		case <-watchdog:
			t.Fatal("restarted cluster hung")
		}
	}
	for rank := 0; rank < k; rank++ {
		if errs[rank] != nil {
			t.Fatalf("restarted rank %d: %v", rank, errs[rank])
		}
	}
	requireLossesEqual(t, resumed[0], ref.Losses[completed:], "post-restart")
}

func TestCrashRestartParityWholeGraphLoopback(t *testing.T) {
	runCrashRestartParity(t, nil, loopbackTransports)
}

func TestCrashRestartParityMiniBatchLoopback(t *testing.T) {
	runCrashRestartParity(t,
		&MiniBatchConfig{BatchSize: 32, PrefetchDepth: 2, SamplerWorkers: 2}, loopbackTransports)
}

func TestCrashRestartParityWholeGraphTCP(t *testing.T) {
	runCrashRestartParity(t, nil, tcpTransports)
}

func TestCrashRestartParityMiniBatchTCP(t *testing.T) {
	runCrashRestartParity(t,
		&MiniBatchConfig{BatchSize: 32, PrefetchDepth: 2, SamplerWorkers: 2}, tcpTransports)
}
