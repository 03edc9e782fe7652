// DAG pipeline study: jobs composed as map → join → reduce phases (§5.2).
// The input phase is where stragglers live and where the approximation
// bound applies; GRASS estimates intermediate-phase time from completed
// jobs and subtracts it from the deadline. This example shows gains staying
// stable as the DAG deepens (Figure 9's claim).
package main

import (
	"fmt"
	"log"

	grass "github.com/approx-analytics/grass"
)

func main() {
	sim := grass.DefaultSimConfig()
	sim.Cluster.Machines = 100
	sim.Seed = 21

	fmt.Println("DAG pipeline workload: deadline-bound, 60 jobs/point, 200 slots")
	fmt.Printf("%-8s %14s %14s %12s\n", "DAG", "LATE acc", "GRASS acc", "improvement")
	for dag := 2; dag <= 6; dag++ {
		tc := grass.DefaultTraceConfig(grass.Facebook, grass.Hadoop, grass.DeadlineBound)
		tc.Jobs = 60
		tc.Slots = 200
		tc.Load = 1.3
		tc.Seed = 21
		tc.DAGLength = dag
		jobs, err := grass.GenerateTrace(tc)
		if err != nil {
			log.Fatal(err)
		}
		late, err := grass.SimulateJobs(sim, "late", jobs)
		if err != nil {
			log.Fatal(err)
		}
		gr, err := grass.SimulateJobs(sim, "grass", jobs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %14.3f %14.3f %+11.1f%%\n", dag,
			grass.MeanAccuracy(late.Results),
			grass.MeanAccuracy(gr.Results),
			grass.AccuracyImprovementPct(late.Results, gr.Results))
	}
}
