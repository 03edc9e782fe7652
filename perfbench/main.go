// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload: with --trace 0 it runs the untraced pass and
// prints the end-to-end metrics; with --trace 1 it runs the untraced pass
// and then a traced pass over the same rounds, checks that both simulated
// the same thing, and prints the per-layer metrics. The last line of
// standard output is the JSON result. See README.md for the workloads and
// metrics, and run.sh for how to build and run it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	smoke    bool   // tiny sizes, two rounds: for the benchmark's own tests
	workDir  string // where swim-serve writes its trace file
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the untraced pass on the reference machine; sets the number of rounds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes and two rounds, for a quick check")
	flag.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "work"), "directory for generated input files")
	flag.Parse()
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type roundFunc func(r int, reg *registry) (*roundResult, error)

// workload is one set of inputs; see README.md for why each was chosen.
type workload struct {
	name    string
	threads int // goroutines busy at once
	round   roundFunc
	// direct, when set, runs the traced pass's code path without tracing:
	// for a workload whose untraced pass enters the program another way,
	// it isolates the tracing overhead from the entry point's own cost.
	direct roundFunc
	// roundSeconds is a round's untraced wall time on the reference machine
	// (README.md); --seconds/roundSeconds rounds make one run, so a run's
	// work is fixed and the same for every build measured.
	roundSeconds float64
	// Which spans run on the engine goroutines (and so count against the
	// scheduler's self time): the admission source's Next, the result fold.
	engineNext, engineFold bool
	// importTrace marks the workload whose jobs come from traceio rather
	// than the synthetic trace package.
	importTrace bool
}

var workloadNames = []string{"mixed-gs", "deadline-grass-k2", "swim-serve"}

// sizes fixes the work of one round.
type sizes struct {
	mixedJobs, k2Jobs, swimRecords, swimJobs int
}

var (
	fullSizes  = sizes{mixedJobs: 50, k2Jobs: 400, swimRecords: 600_000, swimJobs: 4_500}
	smokeSizes = sizes{mixedJobs: 12, k2Jobs: 16, swimRecords: 3_000, swimJobs: 300}
)

// minRounds is how many set-ups every run measures at least.
const minRounds = 3

func newWorkload(o options) (*workload, func(), error) {
	sz := fullSizes
	if o.smoke {
		sz = smokeSizes
	}
	noop := func() {}
	switch o.workload {
	case "mixed-gs":
		replay, direct := mixedGS(o.seed, sz.mixedJobs)
		return &workload{name: o.workload, threads: 1, round: replay, direct: direct,
			roundSeconds: 1.1, engineNext: true, engineFold: true}, noop, nil
	case "deadline-grass-k2":
		return &workload{name: o.workload, threads: 2, round: deadlineGrassK2(o.seed, sz.k2Jobs),
			roundSeconds: 2.6, engineNext: true}, noop, nil
	case "swim-serve":
		if err := os.MkdirAll(o.workDir, 0o755); err != nil {
			return nil, nil, err
		}
		dir, err := os.MkdirTemp(o.workDir, "swim-")
		if err != nil {
			return nil, nil, err
		}
		cleanup := func() { os.RemoveAll(dir) }
		path := filepath.Join(dir, "trace.tsv")
		if _, err := writeSWIM(path, corpusSeed(0), sz.swimRecords); err != nil {
			cleanup()
			return nil, nil, err
		}
		return &workload{name: o.workload, threads: 2, round: swimServe(o.seed, path, sz.swimJobs),
			roundSeconds: 3.4, engineFold: true, importTrace: true}, cleanup, nil
	}
	return nil, nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
}

func run(o options, out io.Writer) (*result, error) {
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("--trace %d (want 0 or 1)", o.trace)
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds %d (want at least 1)", o.seconds)
	}
	w, cleanup, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	stampEnv(out, w)

	rounds := max(minRounds, int(float64(o.seconds)/w.roundSeconds+0.5))
	if o.smoke {
		rounds = 2
	}
	plain, err := runPass(w.name, w.round, nil, rounds)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: make(map[string]metric)}
	check := func(name string, p *pass) {
		attempted, failed := checkRounds(out, name, p, plain)
		res.Attempted += attempted
		res.Failed += failed
	}
	check("untraced", plain)
	fmt.Fprintf(out, "digest: %s seed=%d rounds=%d %s\n", w.name, o.seed, len(plain.rounds), digest(plain.rounds))

	if o.trace == 0 {
		endToEnd(res, plain)
	} else {
		direct := plain
		if w.direct != nil {
			if direct, err = runPass(w.name, w.direct, nil, rounds); err != nil {
				return nil, err
			}
			check("direct", direct)
		}
		reg := &registry{}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		traced, err := runPass(w.name, w.round, reg, rounds)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		check("traced", traced)
		shares, samples, err := cpuShares(prof.Bytes())
		if err != nil {
			return nil, err
		}
		perLayer(res, w, plain, direct, traced, reg.total(), shares, samples)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// checkRounds compares a pass's rounds with the untraced pass's. It returns
// the jobs attempted and the jobs that failed: not completed, or in a round
// whose simulated statistics differ.
func checkRounds(out io.Writer, name string, p, plain *pass) (attempted, failed int) {
	for i, r := range p.rounds {
		attempted += r.attempted
		switch {
		case r.completed != r.attempted:
			fmt.Fprintf(out, "check: %s round %d completed %d of %d jobs\n", name, i, r.completed, r.attempted)
			failed += r.attempted - r.completed
		case r.stats != plain.rounds[i].stats:
			fmt.Fprintf(out, "check: %s round %d stats %+v differ from untraced %+v\n", name, i, r.stats, plain.rounds[i].stats)
			failed += r.attempted
		}
	}
	return attempted, failed
}

// pass is one sequence of rounds with its runtime figures.
type pass struct {
	rounds          []*roundResult
	wall            time.Duration
	allocs, allocB  uint64
	gcCPU, totalCPU float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// runPass runs the given number of rounds; reg non-nil makes it the traced
// pass.
func runPass(name string, round roundFunc, reg *registry, rounds int) (*pass, error) {
	watch := startHeapWatch(10 * time.Millisecond)
	defer watch.stop()
	before := readRuntime()
	p := &pass{}
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		// Every round starts from a collected heap, so neither its set-up
		// nor its heap peak depends on garbage the previous round left.
		runtime.GC()
		watch.reset()
		res, err := round(r, reg)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", name, r, err)
		}
		res.heapPeak = watch.reset()
		p.rounds = append(p.rounds, res)
	}
	p.wall = time.Since(t0)
	after := readRuntime()
	p.allocs = uint64(sampleFloat(after[0]) - sampleFloat(before[0]))
	p.allocB = uint64(sampleFloat(after[1]) - sampleFloat(before[1]))
	p.gcCPU = sampleFloat(after[2]) - sampleFloat(before[2])
	p.totalCPU = sampleFloat(after[3]) - sampleFloat(before[3])
	return p, nil
}

// heapWatch samples the bytes of live and not-yet-swept heap objects and
// keeps the maximum since the last reset.
type heapWatch struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  atomic.Uint64
}

func startHeapWatch(every time.Duration) *heapWatch {
	h := &heapWatch{stopc: make(chan struct{})}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	sample := func() {
		metrics.Read(s)
		v := s[0].Value.Uint64()
		for p := h.peak.Load(); v > p && !h.peak.CompareAndSwap(p, v); p = h.peak.Load() {
		}
	}
	sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				sample()
			case <-h.stopc:
				sample()
				return
			}
		}
	}()
	return h
}

// reset returns the peak since the previous reset and starts a new one.
func (h *heapWatch) reset() uint64 { return h.peak.Swap(0) }

func (h *heapWatch) stop() {
	close(h.stopc)
	h.wg.Wait()
}

// digest hashes every round's simulated statistics, so a behaviour change
// between two builds shows as a different digest for the same seed.
func digest(rounds []*roundResult) string {
	h := fnv.New64a()
	var jobs int
	var events uint64
	for _, r := range rounds {
		fmt.Fprintf(h, "%+v\n", r.stats)
		jobs += r.stats.Jobs
		events += r.stats.Events
	}
	return fmt.Sprintf("jobs=%d events=%d fnv64=%016x", jobs, events, h.Sum64())
}

// totals sums the rounds' measured work and time outside set-up.
func totals(rounds []*roundResult) (jobs, events float64, busy time.Duration) {
	for _, r := range rounds {
		jobs += float64(r.completed)
		events += float64(r.stats.Events)
		busy += r.wall - r.setup
	}
	return
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func endToEnd(res *result, p *pass) {
	jobs, events, busy := totals(p.rounds)
	setups := make([]float64, len(p.rounds))
	heaps := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		setups[i] = r.setup.Seconds()
		heaps[i] = float64(r.heapPeak) / (1 << 20)
	}
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	set("jobs_per_s", ratio(jobs, busy.Seconds()), "1/s")
	set("events_per_s", ratio(events, busy.Seconds()), "1/s")
	set("heap_peak_mib", median(heaps), "MiB")
	set("setup_s", median(setups), "s")
	set("ok_ratio", ratio(float64(res.Attempted-res.Failed), float64(res.Attempted)), "ratio")
}

func perLayer(res *result, w *workload, plain, direct, traced *pass, c *counters, shares map[string]float64, samples int64) {
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	var engine, client time.Duration
	var jobs, events float64
	var touches, rescales, attempts uint64
	var touchStats bool
	var util float64
	var specCopies float64
	var dlJobs, errJobs, launched, killed, accW, durW float64
	var wallSum, wallMax, skew float64
	var runs int
	for _, r := range traced.rounds {
		engine += r.engine
		client += r.clientWall
		jobs += float64(r.completed)
		events += float64(r.stats.Events)
		touches += r.touches
		rescales += r.rescales
		attempts += r.attempts
		touchStats = touchStats || r.touchStats
		util += r.utilization / float64(len(traced.rounds))
		specCopies += float64(r.speculative)
		s := r.stats
		dlJobs += float64(s.DeadlineJobs)
		errJobs += float64(s.ErrorJobs)
		accW += s.MeanAccuracy * float64(s.DeadlineJobs)
		durW += s.MeanInputDur * float64(s.ErrorJobs)
		launched += float64(s.Launched)
		killed += float64(s.Killed)
		for _, walls := range r.walls {
			lo, hi, sum := walls[0], walls[0], time.Duration(0)
			for _, d := range walls {
				sum += d
				lo, hi = min(lo, d), max(hi, d)
			}
			wallSum += sum.Seconds()
			wallMax += hi.Seconds()
			skew += (hi - lo).Seconds()
			runs++
		}
	}
	eng := float64(engine)
	picks := c.pick.calls + c.pickInc.calls
	pickNs := float64(c.pick.ns + c.pickInc.ns)
	learnerNs := float64(c.jobEnd.ns + c.taskComplete.ns)

	set("policy.picks", float64(picks), "count")
	set("policy.pick_ns", ratio(pickNs, float64(picks)), "ns")
	set("policy.pick_p99_ns", c.pickHist.quantile(0.99), "ns")
	set("policy.busy_share", ratio(pickNs, eng), "ratio")
	set("policy.inc_share", ratio(float64(c.pickInc.calls), float64(picks)), "ratio")
	set("policy.idle_ratio", ratio(float64(c.idle), float64(picks)), "ratio")
	set("policy.spec_ratio", ratio(float64(c.spec), float64(picks-c.idle)), "ratio")

	set("core.job_end_ns", c.jobEnd.mean(), "ns")
	set("core.task_complete_ns", c.taskComplete.mean(), "ns")
	set("core.merge_ms", c.learnMerge.mean()/1e6, "ms")
	set("core.busy_share", ratio(learnerNs, eng), "ratio")

	child := pickNs + learnerNs
	if w.engineNext {
		child += float64(c.next.ns)
	}
	if w.engineFold {
		child += float64(c.fold.ns)
	}
	set("sched.self_share", ratio(eng-child, eng), "ratio")
	set("sched.events_per_job", ratio(events, jobs), "count")
	if touchStats {
		set("sched.attempts_per_event", ratio(float64(attempts), events), "ratio")
		set("sched.touches_per_attempt", ratio(float64(touches), float64(attempts)), "ratio")
		set("sched.rescales_per_attempt", ratio(float64(rescales), float64(attempts)), "ratio")
	} else {
		// The simulator is built inside sched.RunSharded or serve; only
		// the policy calls are visible from outside.
		set("sched.attempts_per_event", ratio(float64(picks), events), "ratio")
		set("sched.touches_per_attempt", 0, "ratio")
		set("sched.rescales_per_attempt", 0, "ratio")
	}
	set("sched.utilization", util, "ratio")

	set("shard.balance", ratio(wallSum, wallMax), "ratio")
	set("shard.skew_s", ratio(skew, float64(runs)), "s")
	set("shard.fold_ns", c.fold.mean(), "ns")

	var traceNext, importNext span
	if w.importTrace {
		importNext = c.next
	} else {
		traceNext = c.next
	}
	set("trace.next_ns", traceNext.mean(), "ns")
	set("trace.busy_share", ratio(float64(traceNext.ns), eng), "ratio")

	var scanWall time.Duration
	var scanBytes, scanRecords float64
	var waits hist
	var submits span
	var depth int64
	for _, r := range plain.rounds {
		scanWall += r.scanWall
		scanBytes += float64(r.scanBytes)
		scanRecords += float64(r.scanRecords)
		waits.merge(&r.waits)
		depth = max(depth, r.queueDepthMax)
	}
	var tracedWall time.Duration
	for _, r := range traced.rounds {
		submits.merge(r.submits)
		tracedWall += r.wall
	}
	set("traceio.import_mb_per_s", ratio(scanBytes/1e6, scanWall.Seconds()), "MB/s")
	set("traceio.scan_ns_per_record", ratio(float64(scanWall), scanRecords), "ns")
	set("traceio.next_ns", importNext.mean(), "ns")
	set("traceio.busy_share", ratio(float64(importNext.ns), float64(client)), "ratio")

	set("serve.submit_ns", submits.mean(), "ns")
	set("serve.block_share", ratio(float64(submits.ns), float64(client)), "ratio")
	set("serve.queue_depth_max", float64(depth), "count")
	set("serve.submit_wait_p50_ms", waits.quantile(0.50)/1e6, "ms")
	set("serve.submit_wait_p99_ms", waits.quantile(0.99)/1e6, "ms")
	set("serve.submit_wait_samples", float64(waits.count), "count")

	_, plainEvents, _ := totals(plain.rounds)
	set("runtime.allocs_per_event", ratio(float64(plain.allocs), plainEvents), "count")
	set("runtime.bytes_per_event", ratio(float64(plain.allocB), plainEvents), "B")
	set("runtime.gc_cpu_share", ratio(plain.gcCPU, plain.totalCPU), "ratio")

	set("stat.deadline_accuracy", ratio(accW, dlJobs), "ratio")
	set("stat.error_input_dur", ratio(durW, errJobs), "sim_time")
	set("stat.copies_per_job", ratio(launched, jobs), "count")
	set("stat.spec_copies_per_job", ratio(specCopies, jobs), "count")
	set("stat.killed_ratio", ratio(killed, launched), "ratio")

	for _, l := range cpuLayers {
		set("cpu."+l, shares[l], "ratio")
	}
	set("cpu.samples", float64(samples), "count")
	set("bench.trace_overhead", ratio(float64(traced.wall), float64(direct.wall))-1, "ratio")
	set("exp.replay_overhead", ratio(float64(plain.wall), float64(direct.wall))-1, "ratio")
}

// stampEnv prints the environment every result was measured in, and warns
// when the workload keeps more goroutines busy than there are CPUs.
func stampEnv(out io.Writer, w *workload) {
	fmt.Fprintf(out, "env: go=%s GOMAXPROCS=%d NumCPU=%d cpu=%q workload=%s busy_threads=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), w.name, w.threads)
	if n := min(runtime.NumCPU(), runtime.GOMAXPROCS(0)); w.threads > n {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %s keeps %d threads busy but only %d CPUs are usable; timings will include waiting for a CPU\n",
			w.name, w.threads, n)
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
