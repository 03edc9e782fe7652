// Error-bound study: the paper's traffic-counting motivation — counting
// cars to the nearest thousand is good enough, so jobs stop after
// completing (1−ε) of their tasks. This example sweeps the error bound and
// shows how GRASS's speedup over LATE behaves as ε tightens toward exact
// computation (ε = 0).
package main

import (
	"fmt"
	"log"

	grass "github.com/approx-analytics/grass"
)

func main() {
	sim := grass.DefaultSimConfig()
	sim.Cluster.Machines = 100
	sim.Seed = 11

	fmt.Println("traffic-counting error-bound sweep: 50 jobs/point, 200 slots")
	fmt.Printf("%-10s %12s %12s %10s\n", "epsilon", "LATE dur", "GRASS dur", "speedup")
	for _, eps := range []float64{0.30, 0.20, 0.10, 0.05, 0.0} {
		tc := grass.DefaultTraceConfig(grass.Facebook, grass.Hadoop, grass.ErrorBound)
		tc.Jobs = 50
		tc.Slots = 200
		tc.Load = 0.7
		tc.Seed = 11
		tc.ErrorRange = [2]float64{eps, eps} // pin every job to this ε
		if eps == 0 {
			tc = grass.DefaultTraceConfig(grass.Facebook, grass.Hadoop, grass.ExactBound)
			tc.Jobs = 50
			tc.Slots = 200
			tc.Load = 0.7
			tc.Seed = 11
		}
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
		fmt.Printf("%-10.2f %12.2f %12.2f %+9.1f%%\n", eps,
			grass.MeanDuration(late.Results),
			grass.MeanDuration(gr.Results),
			grass.SpeedupPct(late.Results, gr.Results))
	}
	fmt.Println("\nε = 0 is an exact computation: GRASS is a unified solution (§6.2.2).")
}
