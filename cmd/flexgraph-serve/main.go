// Command flexgraph-serve runs the online inference service: load (or
// generate) a dataset, build a model, optionally warm it up with a few
// training epochs or restore a checkpoint, then answer per-vertex
// classification queries over HTTP with micro-batching and an embedding
// cache. The inference endpoints share one listener with the observability
// surface (/metrics, /trace, /trace/chrome, expvar, pprof).
//
//	flexgraph-serve -dataset reddit -model gcn -warm-epochs 5 -addr :8090
//	flexgraph-serve -load graph.fgds -model magnn -resume m.fgck
//
//	curl -s localhost:8090/v1/predict -d '{"vertices":[0,7,42]}'
//	curl -s localhost:8090/v1/healthz
//	curl -s 'localhost:8090/metrics?format=json'
//
// The command is written entirely against the public flexgraph package — it
// doubles as a walkthrough of the serving API.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	flexgraph "repro"
)

func main() {
	addr := flag.String("addr", ":8090", "HTTP listen address")
	batch := flag.Int("batch", flexgraph.DefaultServeBatchSize, "micro-batch bound in query vertices")
	cacheCap := flag.Int("cache-cap", flexgraph.DefaultServeCacheCapacity, "embedding cache capacity in rows (negative disables)")
	maxVerts := flag.Int("max-vertices", flexgraph.DefaultServeMaxQueryVertices, "per-request vertex cap (negative disables)")
	datasetName := flag.String("dataset", "reddit", "generated dataset: reddit, fb91, twitter or imdb")
	loadPath := flag.String("load", "", "load a serialised .fgds dataset instead of generating one")
	scale := flag.Float64("scale", 0.25, "generated dataset scale factor")
	modelName := flag.String("model", "gcn", "model: gcn, gin, ggcn, pinsage, magnn, pgnn or jknet")
	hidden := flag.Int("hidden", 32, "hidden width")
	strategyName := flag.String("strategy", "HA", "execution strategy: SA, SA+FA or HA")
	warmEpochs := flag.Int("warm-epochs", 0, "training epochs to run before serving")
	resume := flag.String("resume", "", "load model parameters from this checkpoint")
	seed := flag.Uint64("seed", 1, "random seed")
	traceCap := flag.Int("trace-cap", 0, "span ring capacity (0 = default)")
	flag.Parse()

	var d *flexgraph.Dataset
	var err error
	if *loadPath != "" {
		d, err = flexgraph.LoadDataset(*loadPath)
	} else {
		d, err = flexgraph.DatasetByName(*datasetName, flexgraph.DatasetConfig{Scale: *scale, Seed: *seed})
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("dataset:", d.Stats())

	rng := flexgraph.NewRNG(*seed)
	var model *flexgraph.Model
	switch *modelName {
	case "gcn":
		model = flexgraph.NewGCN(d.FeatureDim(), *hidden, d.NumClasses, rng)
	case "gin":
		model = flexgraph.NewGIN(d.FeatureDim(), *hidden, d.NumClasses, rng)
	case "ggcn":
		model = flexgraph.NewGGCN(d.FeatureDim(), *hidden, d.NumClasses, rng)
	case "pinsage":
		model = flexgraph.NewPinSage(d.FeatureDim(), *hidden, d.NumClasses, flexgraph.DefaultPinSageConfig(), rng)
	case "magnn":
		if len(d.Metapaths) == 0 {
			log.Fatal("magnn needs a dataset with metapaths (try -dataset imdb)")
		}
		model = flexgraph.NewMAGNN(d.FeatureDim(), *hidden, d.NumClasses, d.Metapaths, flexgraph.MAGNNConfig{MaxInstances: 10}, rng)
	case "pgnn":
		model = flexgraph.NewPGNN(d.Graph, d.FeatureDim(), *hidden, d.NumClasses, 8, 16, rng)
	case "jknet":
		model = flexgraph.NewJKNet(d.FeatureDim(), *hidden, d.NumClasses, 2, rng)
	default:
		log.Fatalf("unknown model %q", *modelName)
	}

	var strategy flexgraph.Strategy
	switch *strategyName {
	case "SA":
		strategy = flexgraph.StrategySA
	case "SA+FA", "SAFA":
		strategy = flexgraph.StrategySAFA
	case "HA":
		strategy = flexgraph.StrategyHA
	default:
		log.Fatalf("unknown strategy %q", *strategyName)
	}
	eng := flexgraph.NewEngine(strategy)

	if *resume != "" {
		if err := flexgraph.LoadCheckpoint(*resume, model.Parameters()); err != nil {
			log.Fatalf("resume: %v", err)
		}
		fmt.Println("resumed from", *resume)
	}
	if *warmEpochs > 0 {
		tr := flexgraph.NewTrainerWith(model, flexgraph.TrainerOptions{
			Graph:     d.Graph,
			Features:  d.Features,
			Labels:    d.Labels,
			TrainMask: d.TrainMask,
			Seed:      *seed,
			Engine:    eng,
		})
		start := time.Now()
		for epoch := 1; epoch <= *warmEpochs; epoch++ {
			loss, err := tr.Epoch()
			if err != nil {
				log.Fatalf("warm epoch %d: %v", epoch, err)
			}
			fmt.Printf("warm epoch %3d  loss %.4f  elapsed %v\n",
				epoch, loss, time.Since(start).Round(time.Millisecond))
		}
	}

	tracer := flexgraph.NewTracer(*traceCap)
	reg := flexgraph.NewMetricsRegistry()
	srv, err := flexgraph.NewInferenceServer(flexgraph.ServeOptions{
		Model:            model,
		Graph:            d.Graph,
		Features:         d.Features,
		Engine:           eng,
		BatchSize:        *batch,
		CacheCapacity:    *cacheCap,
		MaxQueryVertices: *maxVerts,
		Seed:             *seed,
		Metrics:          reg,
		Tracer:           tracer,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	bound, shutdown, err := srv.ListenAndServe(*addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving %s on http://%s  (POST /v1/predict, GET /v1/healthz, /metrics, /trace)\n",
		model.Name, bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nshutting down")
	_ = shutdown()
}
