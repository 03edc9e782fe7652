// Deadline-bound study: a real-time ad system wants the best possible
// click-through estimate within a hard latency budget. This example builds
// that workload by hand — many multi-waved aggregation jobs with tight
// deadlines — and compares every speculation policy on it, including the
// oracle upper bound.
package main

import (
	"fmt"
	"log"

	grass "github.com/approx-analytics/grass"
)

func main() {
	jobs := adWorkload(60, 7)

	sim := grass.DefaultSimConfig()
	sim.Cluster.Machines = 100
	sim.Seed = 7

	fmt.Println("ad-system deadline workload: 60 jobs, 200 slots")
	fmt.Printf("%-16s %10s %12s %8s\n", "policy", "accuracy", "improvement", "spec")
	var base float64
	for _, p := range []string{"late", "mantri", "gs", "ras", "grass", "oracle"} {
		stats, err := grass.SimulateJobs(sim, p, jobs)
		if err != nil {
			log.Fatal(err)
		}
		acc := grass.MeanAccuracy(stats.Results)
		if p == "late" {
			base = acc
		}
		spec := 0
		for _, r := range stats.Results {
			spec += r.Speculative
		}
		fmt.Printf("%-16s %10.3f %+11.1f%% %8d\n", p, acc, (acc-base)/base*100, spec)
	}
}

// adWorkload builds deadline-bound aggregation jobs: heavy-tailed task
// counts, skewed per-task work (some ad partitions are far hotter than
// others), and deadlines close to each job's ideal duration.
func adWorkload(n int, seed int64) []*grass.Job {
	jobs := make([]*grass.Job, 0, n)
	arrival := 0.0
	rng := newRand(seed)
	for id := 0; id < n; id++ {
		tasks := 40 + rng.intn(800)
		work := make([]float64, tasks)
		for i := range work {
			// Hot partitions: 1 in 8 carries 4x the data.
			work[i] = 8
			if rng.intn(8) == 0 {
				work[i] = 32
			}
		}
		waves := float64(tasks)/66 + 1
		deadline := waves * 9 * 1.1 // ~10% slack over the ideal
		jobs = append(jobs, &grass.Job{
			ID:        id,
			Arrival:   arrival,
			InputWork: work,
			Bound:     grass.NewDeadline(deadline),
		})
		arrival += float64(rng.intn(30)) / 2
	}
	return jobs
}

// newRand is a tiny deterministic generator so the example is reproducible
// without pulling in the library's internals.
type xorshift struct{ s uint64 }

func newRand(seed int64) *xorshift { return &xorshift{s: uint64(seed)*2685821657736338717 + 1} }

func (x *xorshift) next() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}

func (x *xorshift) intn(n int) int { return int(x.next() % uint64(n)) }
