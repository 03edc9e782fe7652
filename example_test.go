package grass_test

import (
	"fmt"

	grass "github.com/approx-analytics/grass"
)

// ExampleSimulateJobs runs a tiny hand-built error-bound job under RAS and
// prints its accuracy: with ε = 0.2 the job stops after 80% of its tasks.
func ExampleSimulateJobs() {
	work := make([]float64, 20)
	for i := range work {
		work[i] = 1
	}
	jobs := []*grass.Job{{ID: 0, InputWork: work, Bound: grass.NewError(0.2)}}

	cfg := grass.DefaultSimConfig()
	cfg.Cluster.Machines = 10
	cfg.Seed = 7

	stats, err := grass.SimulateJobs(cfg, "ras", jobs)
	if err != nil {
		panic(err)
	}
	fmt.Printf("accuracy %.2f\n", stats.Results[0].Accuracy)
	// Output: accuracy 0.80
}

// ExampleNewDeadline shows bound construction and target computation.
func ExampleNewDeadline() {
	d := grass.NewDeadline(30)
	e := grass.NewError(0.1)
	x := grass.Exact()
	fmt.Println(d.Kind, e.TargetTasks(100), x.Epsilon)
	// Output: deadline 90 0
}

// ExampleGenerateTrace summarizes a synthetic workload.
func ExampleGenerateTrace() {
	tc := grass.DefaultTraceConfig(grass.Facebook, grass.Spark, grass.ErrorBound)
	tc.Jobs = 5
	tc.Seed = 3
	jobs, err := grass.GenerateTrace(tc)
	if err != nil {
		panic(err)
	}
	for _, j := range jobs {
		fmt.Printf("job %d: %d tasks, eps %.2f\n", j.ID, j.NumTasks(), j.Bound.Epsilon)
	}
	// Output:
	// job 0: 655 tasks, eps 0.28
	// job 1: 1229 tasks, eps 0.10
	// job 2: 34 tasks, eps 0.28
	// job 3: 11 tasks, eps 0.06
	// job 4: 7 tasks, eps 0.10
}
