// Command grass-serve runs the scheduler as a live service: an open-loop
// arrival driver feeds synthetic jobs into the speculation engine and the
// service reports what a production deployment is judged on — job-latency
// SLO quantiles (p50/p95/p99/p999), queue depth, and slot utilization —
// while it runs.
//
//	grass-serve -jobs 50000 -rate 2.5        # 50K jobs, Poisson arrivals
//	grass-serve -jobs 50000                  # trace-timed (byte-identical
//	                                         # to replaying the trace)
//	grass-serve -for 10s -rate 2.5           # wall-clock-bounded run
//	grass-serve -jobs 20000 -partitions 4    # partitioned service
//	grass-serve -wall-speed 100 -stats 1s    # paced in real time, live
//	                                         # stats every second
//
// The run is bounded by -jobs (virtual job count) and/or -for (wall
// clock); whichever trips first closes admission, and in-flight jobs
// drain. SIGINT (Ctrl-C) and SIGTERM shut down gracefully: the first
// signal closes admission and the in-flight jobs drain to a normal SLO
// summary — what an orchestrator's stop hook expects; a second signal
// cancels outright and exits nonzero without a summary.
//
// Virtual-time output is deterministic: for fixed -seed, -pace-seed and
// -partitions, every line of the final summary except wall-clock
// observations (wall time, max queue depth) is identical across runs and
// across -wall-speed settings. The final "SLO latency" line is
// machine-parseable; CI greps it.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	grass "github.com/approx-analytics/grass"
	"github.com/approx-analytics/grass/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		jobs     = flag.Int("jobs", 50_000, "serve this many jobs then close admission (0 = unbounded, requires -for)")
		policy   = flag.String("policy", "gs", "speculation policy: grass | grass-strawman | grass-best1 | grass-best2util | grass-best2acc | gs | ras | late | mantri | nospec | oracle")
		workload = flag.String("workload", "facebook", "workload: facebook | bing")
		bound    = flag.String("bound", "mixed", "bound mode: mixed | deadline | error | exact")
		seed     = flag.Int64("seed", 1, "simulator + trace seed")
		parts    = flag.Int("partitions", 1, "partition count — the sharded model; virtual-time output is deterministic per partition count")
		load     = flag.Float64("load", 0.75, "offered load for trace-timed arrivals (ignored with -rate)")
		rate     = flag.Float64("rate", 0, "Poisson arrival rate in jobs per virtual-time unit (0 = trace-timed arrivals); ~0.04 is 0.75 offered load for the default facebook/mixed workload on the 400-slot cluster")
		paceSeed = flag.Int64("pace-seed", 1, "arrival-process seed (Poisson mode; independent of -seed)")
		wall     = flag.Float64("wall-speed", 0, "pace admission in real time at this many virtual-time units per second (0 = flat out)")
		forDur   = flag.Duration("for", 0, "close admission after this much wall-clock time (0 = unbounded)")
		stats    = flag.Duration("stats", 0, "print a live stats line at this interval (0 = off)")
		queueCap = flag.Int("queue-cap", 0, "per-partition admission queue capacity (0 = default 1024)")
		scenario = flag.String("scenario", "", "fault scenario: "+strings.Join(grass.FaultScenarios(), " | ")+" (empty or none = benign cluster)")
		fltSeed  = flag.Int64("fault-seed", 0, "pin the fault timeline independently of -seed (0 = derive it from -seed)")
	)
	flag.Parse()

	if *jobs < 0 {
		fmt.Fprintf(os.Stderr, "grass-serve: -jobs %d: want a positive job count, or 0 with -for\n", *jobs)
		return 1
	}
	if *jobs == 0 && *forDur <= 0 {
		fmt.Fprintln(os.Stderr, "grass-serve: an unbounded run needs a bound: give -jobs, -for, or both")
		return 1
	}
	if *parts < 1 {
		fmt.Fprintf(os.Stderr, "grass-serve: -partitions %d: need at least one partition\n", *parts)
		return 1
	}
	if *rate < 0 {
		fmt.Fprintf(os.Stderr, "grass-serve: -rate %v: a Poisson rate must be positive (or 0 for trace-timed)\n", *rate)
		return 1
	}
	if *wall < 0 {
		fmt.Fprintf(os.Stderr, "grass-serve: -wall-speed %v: want virtual units per second >= 0\n", *wall)
		return 1
	}
	if *queueCap < 0 {
		fmt.Fprintf(os.Stderr, "grass-serve: -queue-cap %d: want a positive capacity (or 0 for the default)\n", *queueCap)
		return 1
	}

	w, err := trace.ParseWorkload(*workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "grass-serve: %v\n", err)
		return 1
	}
	b, err := trace.ParseBound(*bound)
	if err != nil {
		fmt.Fprintf(os.Stderr, "grass-serve: %v\n", err)
		return 1
	}

	sc := grass.DefaultSimConfig()
	sc.Seed = *seed
	if sc.Faults, err = grass.FaultScenario(*scenario); err != nil {
		fmt.Fprintf(os.Stderr, "grass-serve: -scenario: %v\n", err)
		return 1
	}
	if *fltSeed != 0 {
		sc.Faults.Seed = *fltSeed
	}
	tc := grass.DefaultTraceConfig(w, grass.Hadoop, b)
	tc.Seed = *seed
	tc.Slots = sc.Cluster.Machines * sc.Cluster.SlotsPerMachine
	tc.Load = *load
	tc.Jobs = *jobs
	if tc.Jobs == 0 {
		// Wall-clock-bounded run: give the generator effectively unlimited
		// jobs; -for closes admission long before the stream runs dry.
		tc.Jobs = math.MaxInt32
	}
	src, err := grass.StreamTrace(tc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "grass-serve: %v\n", err)
		return 1
	}

	// Graceful shutdown: the FIRST SIGINT or SIGTERM closes admission —
	// queued jobs drain, in-flight work completes, and the final SLO
	// summary still prints (what an orchestrator's stop hook wants). A
	// SECOND signal cancels outright: the service stops promptly, pooled
	// state is abandoned consistently, and we exit nonzero with no summary.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	pace := grass.Pace{Mode: grass.TraceTimed, WallSpeed: *wall}
	if *rate > 0 {
		pace = grass.Pace{Mode: grass.Poisson, Rate: *rate, Seed: *paceSeed, WallSpeed: *wall}
	}
	srv, err := grass.Serve(grass.ServeConfig{
		Sim:        sc,
		Partitions: *parts,
		QueueCap:   *queueCap,
		Ctx:        ctx,
		Source:     src,
		Pace:       pace,
		MaxJobs:    *jobs,
		For:        *forDur,
	}, *policy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "grass-serve: %v\n", err)
		return 1
	}
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "grass-serve: %v: closing admission, draining in-flight jobs (signal again to abort)\n", s)
		srv.Close()
		if _, ok := <-sig; ok {
			cancel()
		}
	}()

	fmt.Printf("serving %s/%s load under %q: partitions=%d pace=%s", *workload, *bound, *policy, *parts, pace.Mode)
	if *rate > 0 {
		fmt.Printf(" rate=%g", *rate)
	}
	if *jobs > 0 {
		fmt.Printf(" jobs=%d", *jobs)
	}
	if *forDur > 0 {
		fmt.Printf(" for=%v", *forDur)
	}
	if sc.Faults.Enabled() {
		fmt.Printf(" scenario=%s", *scenario)
	}
	fmt.Println()

	if *stats > 0 {
		ticker := time.NewTicker(*stats)
		defer ticker.Stop()
		done := make(chan struct{})
		defer close(done)
		start := time.Now()
		go func() {
			for {
				select {
				case <-done:
					return
				case <-ticker.C:
					s := srv.Snapshot()
					fmt.Printf("t=%-8v submitted=%-8d done=%-8d depth=%-5d util=%.2f vtime=%.1f p50=%.2f p99=%.2f\n",
						time.Since(start).Round(time.Second), s.Submitted, s.Done, s.QueueDepth, s.Utilization, s.VirtualNow, s.P50, s.P99)
				}
			}
		}()
	}

	sum, err := srv.Wait()
	if err != nil {
		fmt.Fprintf(os.Stderr, "grass-serve: %v\n", err)
		return 1
	}
	printSummary(sum)
	return 0
}

// printSummary renders the final report; the "SLO latency" line is the
// machine-parseable contract (CI greps and parses it).
func printSummary(s *grass.ServeSummary) {
	fmt.Printf("\nserved %d jobs over %d partition(s) in %v wall\n", s.Jobs, s.Partitions, s.Wall.Round(time.Millisecond))
	fmt.Printf("  virtual makespan    %.2f\n", s.Makespan)
	fmt.Printf("  events              %d\n", s.Events)
	fmt.Printf("  mean utilization    %.3f\n", s.MeanUtilization)
	fmt.Printf("  estimator accuracy  %.3f\n", s.EstimatorAccuracy)
	fmt.Printf("  max queue depth     %d\n", s.MaxQueueDepth)
	fmt.Printf("  latency mean/min/max  %.3f / %.3f / %.3f\n", s.MeanLatency, s.MinLatency, s.MaxLatency)
	fmt.Printf("SLO latency p50=%.6g p95=%.6g p99=%.6g p999=%.6g\n", s.P50, s.P95, s.P99, s.P999)
}
