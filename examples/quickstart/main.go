// Quickstart: generate a small Facebook-like deadline-bound workload, run
// it under GRASS and under LATE on identical seeds, and print the accuracy
// improvement — the paper's headline experiment in miniature.
package main

import (
	"fmt"
	"log"

	grass "github.com/approx-analytics/grass"
)

func main() {
	// A 50-node cluster and 80 deadline-bound jobs.
	tc := grass.DefaultTraceConfig(grass.Facebook, grass.Hadoop, grass.DeadlineBound)
	tc.Jobs = 80
	tc.Slots = 100
	tc.Load = 1.3
	jobs, err := grass.GenerateTrace(tc)
	if err != nil {
		log.Fatal(err)
	}

	sim := grass.DefaultSimConfig()
	sim.Cluster.Machines = 50
	sim.Seed = 42

	late, err := grass.SimulateJobs(sim, "late", jobs)
	if err != nil {
		log.Fatal(err)
	}
	gr, err := grass.SimulateJobs(sim, "grass", jobs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("deadline-bound jobs: %d, cluster: %d slots\n",
		len(jobs), sim.Cluster.Machines*sim.Cluster.SlotsPerMachine)
	fmt.Printf("LATE  mean accuracy: %.3f\n", grass.MeanAccuracy(late.Results))
	fmt.Printf("GRASS mean accuracy: %.3f\n", grass.MeanAccuracy(gr.Results))
	fmt.Printf("improvement: %.1f%%\n",
		grass.AccuracyImprovementPct(late.Results, gr.Results))
	for _, bin := range []grass.SizeBin{grass.Small, grass.Medium, grass.Large} {
		l := grass.FilterBin(late.Results, bin)
		g := grass.FilterBin(gr.Results, bin)
		if len(l) == 0 {
			continue
		}
		fmt.Printf("  bin %-8s %2d jobs: %+.1f%%\n", bin, len(l),
			grass.AccuracyImprovementPct(l, g))
	}
}
