// Command distributed trains a gated GCN over a 4-worker in-process
// cluster, demonstrating the §5 machinery end to end: application-driven
// workload balancing (ADB) on a skewed power-law graph, partial
// aggregation with pipeline processing, and the resulting traffic.
package main

import (
	"fmt"
	"log"

	flexgraph "repro"
)

func main() {
	d := flexgraph.FB91Like(flexgraph.DatasetConfig{Scale: 0.15, Seed: 5})
	fmt.Println("dataset:", d.Stats())

	const workers = 4
	// Application-driven balancing: estimate per-root cost from degree
	// (the GCN aggregation workload) and let ADB migrate HDGs from
	// overloaded partitions, preferring plans that cut few dependencies.
	n := d.Graph.NumVertices()
	cost := make([]float64, n)
	for v := 0; v < n; v++ {
		cost[v] = 1 + float64(d.Graph.OutDegree(flexgraph.VertexID(v)))
	}
	hash := flexgraph.HashPartition(n, workers)
	adb := flexgraph.DefaultADB().Rebalance(d.Graph, hash, cost)
	fmt.Printf("balance factor: hash %.3f -> ADB %.3f\n",
		balance(hash, cost), balance(adb, cost))

	// G-GCN: mean aggregation keeps hub vertices numerically tame on the
	// power-law graph (the paper's GCN uses raw sums).
	factory := func(rng *flexgraph.RNG) *flexgraph.Model {
		return flexgraph.NewGGCN(d.FeatureDim(), 32, d.NumClasses, rng)
	}
	res, err := flexgraph.TrainDistributed(flexgraph.ClusterConfig{
		NumWorkers:   workers,
		Pipeline:     true,
		Partitioning: adb,
		Epochs:       10,
		Seed:         5,
	}, d, factory)
	if err != nil {
		log.Fatal(err)
	}

	for i, loss := range res.Losses {
		fmt.Printf("epoch %2d  loss %.4f  wall %v\n", i+1, loss, res.EpochTimes[i].Round(1000))
	}
	fmt.Printf("\ntraffic: %d messages, %d bytes across %d workers\n",
		res.Merged.MessagesSent.Load(), res.Merged.BytesSent.Load(), workers)
}

func balance(p *flexgraph.Partitioning, cost []float64) float64 {
	loads := p.Loads(cost)
	var sum, max float64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	return max / (sum / float64(len(loads)))
}
