package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nau"
	"repro/internal/tensor"
)

// Workload kinds: which runner produces the end-to-end numbers.
const (
	kindTrain   = "train"
	kindCluster = "cluster"
	kindServe   = "serve"
)

// spec freezes one workload's inputs. The sizes were calibrated on the
// 2-CPU reference host (see README.md, "Calibration") so that a 12 s run
// times at least ~70 epochs or ~480 open-loop queries; changing any of them
// re-bases every number, so -compare refuses reports whose sizes differ.
type spec struct {
	name string
	kind string
	why  string

	dataset string  // dataset.ByName key
	scale   float64 // dataset.Config.Scale
	featDim int     // 0 = the dataset's default width
	model   string  // gcn | pinsage | magnn
	hidden  int

	// Cluster workloads.
	tcp       bool
	miniBatch *cluster.MiniBatchConfig

	// Serving workloads.
	routed   bool    // 3 replicas behind router.Router; false = one serve.Server
	cacheCap int     // per-replica serve.Options.CacheCapacity (-1 disables)
	skew     bool    // popularity perm[floor(n*u^3)]; false = uniform
	rateQPS  float64 // open-loop arrival rate, about half the seed's capacity
}

// size is the frozen input description -compare checks for equality.
func (s spec) size() string {
	out := fmt.Sprintf("%s*%g/f%d/%s%d", s.dataset, s.scale, s.featDim, s.model, s.hidden)
	if s.miniBatch != nil {
		out += fmt.Sprintf("/mb%d", s.miniBatch.BatchSize)
	}
	if s.kind == kindServe {
		out += fmt.Sprintf("/cache%d/%gqps", s.cacheCap, s.rateQPS)
	}
	return out
}

var workloads = []spec{
	{
		name: "train_gcn_dense", kind: kindTrain,
		why:     "dense uniform-degree DNFA epoch: fused bottom aggregation, dense products and backward are all of it; selection, HDG and comm do nothing",
		dataset: "reddit", scale: 1.5, model: "gcn", hidden: 64,
	},
	{
		name: "train_pinsage_skew", kind: kindTrain,
		why:     "INFA epoch on a power-law graph: random-walk NeighborSelection and hdg.Build re-run every epoch and dominate; kernels are minor",
		dataset: "twitter", scale: 1, featDim: 16, model: "pinsage", hidden: 16,
	},
	{
		name: "train_magnn_hetero", kind: kindTrain,
		why:     "INHA epoch: hierarchical HDG levels and their backward dominate; selection is paid once, so it moves setup_s and not the epoch",
		dataset: "imdb", scale: 0.7, model: "magnn", hidden: 64,
	},
	{
		name: "cluster_gcn_k2_tcp", kind: kindCluster,
		why:     "2 ranks over real TCP sockets, whole-graph GCN: a few large feature/partial exchanges and one all-reduce per epoch; fence wait and bytes decide it",
		dataset: "twitter", scale: 1, model: "gcn", hidden: 64, tcp: true,
	},
	{
		name: "cluster_pinsage_k2_minibatch", kind: kindCluster,
		why:     "2 loopback ranks, mini-batch PinSage: a dozen small all-reduces and store.Forward calls per epoch plus the prefetching sampler; latency, not bandwidth",
		dataset: "twitter", scale: 0.2, model: "pinsage", hidden: 64,
		miniBatch: &cluster.MiniBatchConfig{BatchSize: 128, PrefetchDepth: 2, SamplerWorkers: 1},
	},
	{
		name: "serve_routed_skew", kind: kindServe,
		why:     "cache-hit path: 3 replicas behind the router, skewed popularity; ring lookup, shard fan-out, micro-batch flush and cache probes dominate",
		dataset: "twitter", scale: 1, model: "gcn", hidden: 64,
		routed: true, cacheCap: 6000, skew: true, rateQPS: 1000,
	},
	{
		name: "serve_direct_uniform", kind: kindServe,
		why:     "bypasses router and cache: one server, uniform popularity, cache off; planner expansion and per-layer execution are the whole cost",
		dataset: "twitter", scale: 0.25, model: "gcn", hidden: 64,
		cacheCap: -1, rateQPS: 100,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// servingSeed generates the graph and the popularity ranking of the serving
// workloads whatever --seed says. Which vertices are hot, and how large their
// neighbourhoods are, set the cache's working set: with both drawn from --seed
// routed capacity swung by 40 % from seed to seed on a quiet host. --seed still
// draws the queries, the arrival times and the model's initial weights.
const servingSeed = 1

// tinyScale shrinks every dataset for the -tiny smoke size used by the tests.
const tinyScale = 0.08

func (s spec) generate(seed uint64, tiny bool) (*dataset.Dataset, error) {
	scale := s.scale
	if tiny {
		scale *= tinyScale
	}
	if s.kind == kindServe {
		seed = servingSeed
	}
	return dataset.ByName(s.dataset, dataset.Config{Scale: scale, FeatureDim: s.featDim, Seed: seed})
}

// factory builds the workload's model; every replica and every probe calls it
// with an identically seeded RNG, so all of them start from the same weights.
func (s spec) factory(d *dataset.Dataset) cluster.ModelFactory {
	return func(rng *tensor.RNG) *nau.Model {
		in, classes := d.FeatureDim(), d.NumClasses
		switch s.model {
		case "pinsage":
			return models.NewPinSage(in, s.hidden, classes, models.DefaultPinSageConfig(), rng)
		case "magnn":
			return models.NewMAGNN(in, s.hidden, classes, d.Metapaths, models.MAGNNConfig{MaxInstances: 20}, rng)
		default:
			return models.NewGCN(in, s.hidden, classes, rng)
		}
	}
}

// metricDef names one reported metric. bound is the end-to-end regression
// bound (share of the parent's median); per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd lists what a user of the system sees. Every workload reports every
// one: op is an epoch for the training and cluster workloads and a query for
// the serving workloads (see README.md for the per-kind definitions).
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the layer metrics of the traced run, <package>.<name>.
var perLayer = []metricDef{
	{"dataset.gen_s", "s", "lower", 0},
	{"partition.hash_s", "s", "lower", 0},
	{"partition.edge_cut_frac", "ratio", "lower", 0},
	{"tensor.matmul_ns", "ns", "lower", 0},
	{"tensor.gather_ns", "ns", "lower", 0},
	{"engine.agg_bottom_fwd_ns", "ns", "lower", 0},
	{"engine.agg_bottom_fwdbwd_ns", "ns", "lower", 0},
	{"engine.edges_per_s", "1/s", "higher", 0},
	{"engine.agg_intermediate_ns", "ns", "lower", 0},
	{"engine.softmax_weighted_ns", "ns", "lower", 0},
	{"engine.agg_schema_ns", "ns", "lower", 0},
	{"nn.loss_ns", "ns", "lower", 0},
	{"nn.backward_s", "s", "lower", 0},
	{"nn.opt_step_s", "s", "lower", 0},
	{"nn.ckpt_save_s", "s", "lower", 0},
	{"nn.ckpt_load_s", "s", "lower", 0},
	{"hdg.build_s", "s", "lower", 0},
	{"hdg.bytes", "bytes", "lower", 0},
	{"hdg.instances", "count", "lower", 0},
	{"nau.select_s", "s", "lower", 0},
	{"nau.stage_selection_s", "s", "lower", 0},
	{"nau.stage_aggregation_s", "s", "lower", 0},
	{"nau.stage_update_s", "s", "lower", 0},
	{"nau.stage_backward_s", "s", "lower", 0},
	{"nau.selection_frac", "ratio", "lower", 0},
	{"nau.unattributed_frac", "ratio", "lower", 0},
	{"rpc.encode_ns", "ns", "lower", 0},
	{"rpc.decode_ns", "ns", "lower", 0},
	{"rpc.tcp_rtt_us", "us", "lower", 0},
	{"collective.allreduce_s", "s", "lower", 0},
	{"collective.exchange_s", "s", "lower", 0},
	{"collective.barrier_us", "us", "lower", 0},
	{"cluster.stage_selection_s", "s", "lower", 0},
	{"cluster.stage_aggregation_s", "s", "lower", 0},
	{"cluster.stage_update_s", "s", "lower", 0},
	{"cluster.stage_backward_s", "s", "lower", 0},
	{"cluster.stage_sync_s", "s", "lower", 0},
	{"cluster.bytes_features", "bytes", "lower", 0},
	{"cluster.bytes_partials", "bytes", "lower", 0},
	{"cluster.bytes_grads", "bytes", "lower", 0},
	{"cluster.bytes_plan", "bytes", "lower", 0},
	{"cluster.msgs_per_epoch", "count", "lower", 0},
	{"cluster.skew_max_over_mean", "ratio", "lower", 0},
	{"cluster.k1_epoch_s", "s", "lower", 0},
	{"cluster.dist_overhead_frac", "ratio", "lower", 0},
	{"store.sample_ns", "ns", "lower", 0},
	{"store.gather_ns", "ns", "lower", 0},
	{"store.batch_materialize_ms", "ms", "lower", 0},
	{"store.forward_ms", "ms", "lower", 0},
	{"store.sample_wait_frac", "ratio", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.batch_vertices_p50", "count", "higher", 0},
	{"serve.batch_ms_p50", "ms", "lower", 0},
	{"serve.batches_per_s", "1/s", "lower", 0},
	{"serve.queue_wait_ms_p50", "ms", "lower", 0},
	{"serve.cold_query_ms", "ms", "lower", 0},
	{"serve.update_model_ms", "ms", "lower", 0},
	{"serve.http_hop_ms", "ms", "lower", 0},
	{"router.route_overhead_ms", "ms", "lower", 0},
	{"router.shards_per_query", "count", "lower", 0},
	{"router.replica_share_max", "ratio", "lower", 0},
	{"router.hot_routed_frac", "ratio", "higher", 0},
	{"router.retries", "count", "lower", 0},
	{"router.shed", "count", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.spans", "count", "lower", 0},
	{"trace.dropped", "count", "lower", 0},
	{"process.peak_rss_mb", "MB", "lower", 0},
	{"process.alloc_mb_per_op", "MB", "lower", 0},
	{"process.gc_pause_ms", "ms", "lower", 0},
}
