// Command grass-bench regenerates the paper's tables and figures, and runs
// trace-scale streaming replays:
//
//	grass-bench                    # every experiment at the quick size
//	grass-bench -full              # full size (EXPERIMENTS.md numbers)
//	grass-bench -fig fig5          # one experiment
//	grass-bench -list              # available experiment IDs
//	grass-bench -profile perf      # also write CPU/heap profiles
//	grass-bench -jobs 1000000      # streaming replay: a million mixed jobs
//	                               # in bounded memory, high-water reported
//	grass-bench -trace-file fb.tsv -trace-format swim -partitions 4
//	                               # replay an imported real cluster trace
//	                               # (SWIM/Facebook or Google task_events,
//	                               # plain or .gz) through the same
//	                               # bounded-memory pipeline
//	grass-bench -jobs 1000000 -partitions 4
//	                               # the same trace partitioned 4 ways, one
//	                               # goroutine per partition; the merge is
//	                               # deterministic, and results are
//	                               # comparable only at equal -partitions
//	                               # (README "Sharded execution")
//
// Output is plain-text tables with the same rows/series the paper plots.
// With -profile, CPU samples cover the runs and a heap profile is written
// at exit — `go tool pprof <dir>/perf.cpu.prof` then points at the
// simulator's hot path. Bare profile prefixes land in a fresh temp
// directory (printed on start) so repeated runs never litter the working
// tree; give a path containing a separator to choose the location.
//
// The -jobs replay streams the trace through the simulator: jobs are
// generated lazily in arrival order, recycled when they finish, and results
// fold into running aggregates — heap high-water stays flat as -jobs grows.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/approx-analytics/grass/internal/exp"
	"github.com/approx-analytics/grass/internal/fault"
	"github.com/approx-analytics/grass/internal/trace"
	"github.com/approx-analytics/grass/internal/traceio"
)

// main delegates to run so deferred cleanup (profile finalization) executes
// on every exit path; os.Exit here would skip it.
func main() {
	os.Exit(run())
}

func run() int {
	var (
		fig     = flag.String("fig", "", "run one experiment by ID (see -list)")
		full    = flag.Bool("full", false, "full-size runs (slower; EXPERIMENTS.md numbers)")
		list    = flag.Bool("list", false, "list experiment IDs")
		workers = flag.Int("workers", 0, "concurrent simulations per experiment (0 = all cores); results are identical for any value")
		profile = flag.String("profile", "", "write <prefix>.cpu.prof and <prefix>.mem.prof covering the runs (bare prefixes go to a temp dir)")

		jobs        = flag.Int("jobs", 0, "streaming replay: replay this many jobs instead of running experiments")
		policy      = flag.String("policy", "gs", "replay policy: grass | grass-strawman | grass-best1 | grass-best2util | grass-best2acc | gs | ras | late | mantri | nospec | oracle")
		workload    = flag.String("workload", "facebook", "replay workload: facebook | bing")
		bound       = flag.String("bound", "mixed", "replay bound mode: mixed | deadline | error | exact")
		seed        = flag.Int64("seed", 1, "replay seed")
		traceFile   = flag.String("trace-file", "", "streaming replay of an imported real cluster trace (SWIM or Google task_events, .gz ok) instead of a synthetic workload")
		traceFormat = flag.String("trace-format", "swim", "imported trace format: swim | google")
		parts       = flag.Int("partitions", 1, "replay partition count — the sharded model: cluster and trace split with a deterministic merge, one goroutine per partition; results are comparable only at equal partition counts (1 = the plain engine)")
		learner     = flag.String("learner", "ring", "GRASS learner: ring (per-partition ring buffer) | sketch (mergeable sketch store — partition-invariant learning at -partitions > 1)")
		learnEpochs = flag.Int("learn-epochs", 1, "replay the trace this many times, carrying merged learned state into each next epoch (needs -learner sketch when > 1); stats report the final epoch")
		scenario    = flag.String("scenario", "", "replay fault scenario: "+strings.Join(fault.Scenarios(), " | ")+" (empty or none = benign cluster)")
		faultSeed   = flag.Int64("fault-seed", 0, "pin the fault timeline independently of -seed (0 = derive it from -seed)")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Desc)
		}
		return 0
	}
	if *profile != "" {
		prefix, err := profilePrefix(*profile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "grass-bench: %v\n", err)
			return 1
		}
		cpu, err := os.Create(prefix + ".cpu.prof")
		if err != nil {
			fmt.Fprintf(os.Stderr, "grass-bench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			fmt.Fprintf(os.Stderr, "grass-bench: %v\n", err)
			return 1
		}
		fmt.Printf("profiles: %s.cpu.prof, %s.mem.prof\n", prefix, prefix)
		// Finalize both profiles even when an experiment fails: a profile of
		// the run that errored is exactly what the debugging session needs.
		defer func() {
			pprof.StopCPUProfile()
			cpu.Close()
			mem, err := os.Create(prefix + ".mem.prof")
			if err != nil {
				fmt.Fprintf(os.Stderr, "grass-bench: %v\n", err)
				return
			}
			defer mem.Close()
			runtime.GC() // materialize accurate live-heap stats
			if err := pprof.WriteHeapProfile(mem); err != nil {
				fmt.Fprintf(os.Stderr, "grass-bench: %v\n", err)
			}
		}()
	}

	if *jobs < 0 {
		fmt.Fprintf(os.Stderr, "grass-bench: -jobs %d: a replay needs a positive job count\n", *jobs)
		return 1
	}
	if *parts < 1 {
		fmt.Fprintf(os.Stderr, "grass-bench: -partitions %d: want >= 1\n", *parts)
		return 1
	}
	// Fail a bad scenario name up front, and refuse fault flags outside
	// replay mode — the experiment tables are defined on a benign cluster.
	if _, err := fault.Scenario(*scenario); err != nil {
		fmt.Fprintf(os.Stderr, "grass-bench: -scenario: %v\n", err)
		return 1
	}
	if (*scenario != "" && *scenario != "none" || *faultSeed != 0) && *jobs == 0 && *traceFile == "" {
		fmt.Fprintln(os.Stderr, "grass-bench: -scenario/-fault-seed apply to streaming replays only (set -jobs or -trace-file)")
		return 1
	}
	if *traceFile != "" {
		if *fig != "" || *full {
			fmt.Fprintln(os.Stderr, "grass-bench: -trace-file (imported replay) cannot be combined with -fig or -full")
			return 1
		}
		// The imported trace IS the workload: flags that shape the
		// synthetic trace contradict it, and silently ignoring them would
		// replay something other than what was asked for.
		conflict := ""
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "jobs", "workload", "bound":
				conflict = f.Name
			}
		})
		if conflict != "" {
			fmt.Fprintf(os.Stderr, "grass-bench: -%s shapes the synthetic workload and cannot be combined with -trace-file (the trace defines the jobs; bounds come from the import mapping)\n", conflict)
			return 1
		}
		if _, err := os.Stat(*traceFile); err != nil {
			fmt.Fprintf(os.Stderr, "grass-bench: -trace-file: %v (give a readable SWIM or Google task_events file, optionally .gz)\n", err)
			return 1
		}
		return runReplay(0, *traceFile, *traceFormat, *policy, *workload, *bound, *learner, *scenario, *seed, *faultSeed, *parts, *learnEpochs)
	}
	if *jobs > 0 {
		if *fig != "" || *full {
			fmt.Fprintln(os.Stderr, "grass-bench: -jobs (streaming replay) cannot be combined with -fig or -full")
			return 1
		}
		if *jobs < *parts {
			fmt.Fprintf(os.Stderr, "grass-bench: -jobs %d is fewer than -partitions %d: every partition needs at least one job\n", *jobs, *parts)
			return 1
		}
		return runReplay(*jobs, "", "", *policy, *workload, *bound, *learner, *scenario, *seed, *faultSeed, *parts, *learnEpochs)
	}

	cfg := exp.Quick()
	if *full {
		cfg = exp.Default()
	}
	cfg.Workers = *workers
	ran := 0
	for _, e := range exp.All() {
		if *fig != "" && e.ID != *fig {
			continue
		}
		ran++
		start := time.Now()
		t, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "grass-bench: %s: %v\n", e.ID, err)
			return 1
		}
		t.Render(os.Stdout)
		fmt.Printf("[%s took %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "grass-bench: unknown experiment %q (try -list)\n", *fig)
		return 1
	}
	return 0
}

// runReplay executes one streaming replay — synthetic (jobs > 0) or an
// imported real trace (traceFile != "") — and renders its aggregates.
func runReplay(jobs int, traceFile, traceFormat, policy, workload, bound, learner, scenario string, seed, faultSeed int64, partitions, learnEpochs int) int {
	rc := exp.DefaultReplayConfig(jobs)
	rc.Policy = policy
	rc.Seed = seed
	rc.Partitions = partitions
	rc.Learner = learner
	rc.LearnEpochs = learnEpochs
	rc.Scenario = scenario
	rc.FaultSeed = faultSeed
	var err error
	if traceFile != "" {
		rc.TraceFile = traceFile
		if rc.TraceFormat, err = traceio.ParseFormat(traceFormat); err != nil {
			fmt.Fprintf(os.Stderr, "grass-bench: -trace-format: %v\n", err)
			return 1
		}
	} else {
		if rc.Workload, err = trace.ParseWorkload(workload); err != nil {
			fmt.Fprintf(os.Stderr, "grass-bench: %v\n", err)
			return 1
		}
		if rc.Bound, err = trace.ParseBound(bound); err != nil {
			fmt.Fprintf(os.Stderr, "grass-bench: %v\n", err)
			return 1
		}
	}
	rs, err := exp.Replay(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "grass-bench: replay: %v\n", err)
		return 1
	}
	rs.Render(os.Stdout)
	return 0
}

// profilePrefix resolves where profile files go: a prefix with a path
// separator is used as given; a bare prefix lands in a fresh temp directory
// so CI runs and repeated profiling sessions leave no stray files in the
// working tree.
func profilePrefix(p string) (string, error) {
	if strings.ContainsRune(p, os.PathSeparator) {
		return p, nil
	}
	dir, err := os.MkdirTemp("", "grass-bench-")
	if err != nil {
		return "", err
	}
	return filepath.Join(dir, p), nil
}
