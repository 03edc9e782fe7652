package sched

import (
	"math"
	"reflect"
	"testing"

	"github.com/approx-analytics/grass/internal/fault"
	"github.com/approx-analytics/grass/internal/task"
	"github.com/approx-analytics/grass/internal/trace"
)

// faultTestConfig is shardTestConfig with a fault schedule attached. The
// scenario presets are stated against the default 200-machine cluster; on
// the harness's 30 machines the same gaps give a proportionally harsher
// cluster, which is exactly what a fault test wants.
func faultTestConfig(t *testing.T, seed int64, scenario string) Config {
	t.Helper()
	cfg := shardTestConfig(seed)
	fc, err := fault.Scenario(scenario)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fc
	return cfg
}

// TestFaultScenariosShardedMatchUnsharded extends the sharded differential
// harness to every fault scenario: RunSharded under faults must be
// DeepEqual — FaultStats included — to the composed plain-engine reference
// for any worker count, and Parts=1 IS the unsharded engine. Because the
// reference and the sharded run are fully independent simulations, passing
// also proves each scenario replay is rerun-invariant.
func TestFaultScenariosShardedMatchUnsharded(t *testing.T) {
	for _, scenario := range fault.Scenarios() {
		for _, pol := range []string{"gs", "nospec"} {
			t.Run(scenario+"/"+pol, func(t *testing.T) {
				cfg := faultTestConfig(t, 23, scenario)
				tc := shardTestTrace(60, 23, false)
				mk := shardFactory(pol)
				for _, parts := range []int{1, 3} {
					ref := composedReference(t, cfg, tc, parts, mk)
					if ref.Faults == (FaultStats{}) {
						t.Fatalf("parts=%d: scenario %q applied no faults", parts, scenario)
					}
					for _, workers := range []int{1, 3} {
						got := shardedRun(t, cfg, tc, parts, workers, mk)
						if !reflect.DeepEqual(got, ref) {
							t.Fatalf("parts=%d workers=%d: faulted sharded RunStats diverged from the composed plain engine\nsharded: %+v\nplain:   %+v",
								parts, workers, got, ref)
						}
					}
				}
			})
		}
	}
}

// TestFaultRunMatchesRunSource: the fault timeline must be identical for a
// materialized trace (Run, which replays the slice through RunSource) and
// the same trace streamed from a recycling trace.Stream. Job recycling
// must not reach the dormancy predicate: the pending arrival it reads has
// to be the same at every instant, or the idle checks land differently
// and the timelines fork.
func TestFaultRunMatchesRunSource(t *testing.T) {
	for _, scenario := range []string{"crashy", "overload-mixed"} {
		cfg := faultTestConfig(t, 29, scenario)
		tc := shardTestTrace(60, 29, false)
		jobs, err := trace.Generate(tc)
		if err != nil {
			t.Fatal(err)
		}
		simA, err := New(cfg, policyUnderTest(t, "gs"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := simA.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := trace.NewStream(tc)
		if err != nil {
			t.Fatal(err)
		}
		simB, err := New(cfg, policyUnderTest(t, "gs"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := simB.RunSource(stream)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: streamed fault run differs from materialized\n got: %+v\nwant: %+v", scenario, got, want)
		}
	}
}

// TestCrashAccounting: under the crashy scenario every applied crash pairs
// with exactly one restore, crash-killed copies are attributed to Lost (not
// Preempted or Killed) and sum to the cluster-wide LostCopies, and — since
// paired end events always fire — the run ends with every slot free.
func TestCrashAccounting(t *testing.T) {
	cfg := faultTestConfig(t, 31, "crashy")
	tc := shardTestTrace(80, 31, false)
	jobs, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(cfg, policyUnderTest(t, "gs"))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	f := stats.Faults
	if f.Crashes == 0 {
		t.Fatal("crashy scenario applied no crashes")
	}
	if f.Restores != f.Crashes {
		t.Fatalf("%d crashes but %d restores — a crashed machine never came back", f.Crashes, f.Restores)
	}
	lost := 0
	for _, r := range stats.Results {
		lost += r.Lost
	}
	if uint64(lost) != f.LostCopies {
		t.Fatalf("per-job Lost sums to %d, cluster-wide LostCopies is %d", lost, f.LostCopies)
	}
	if f.LostCopies == 0 {
		t.Fatal("no running copy was ever crash-killed — the scenario is not exercising lost work")
	}
	if len(stats.Results) != tc.Jobs {
		t.Fatalf("finished %d of %d jobs", len(stats.Results), tc.Jobs)
	}
	total := cfg.Cluster.Machines * cfg.Cluster.SlotsPerMachine
	if got := sim.cl.FreeSlots(); got != total {
		t.Fatalf("run ended with %d of %d slots free — revoked capacity leaked", got, total)
	}
	for id := 0; id < cfg.Cluster.Machines; id++ {
		if sim.cl.Down(id) {
			t.Fatalf("machine %d still down after the run", id)
		}
	}
}

// TestCopyAccounting: every launched copy leaves exactly once — its task's
// winner through endCopy, every other copy killed, preempted or lost
// through removeCopies — so for every job Launched = Killed + Preempted +
// Lost + completed tasks, where the input phase completed
// round(Accuracy × NumTasks) tasks and each intermediate phase all of its
// tasks. It covers the benign cluster and every fault scenario, under all
// seven policies, on input-only and three-phase traces; a kill path that
// dropped its count would break the sum. The certified-offer check rides
// along, so every attempt a decline certificate answers is held to the
// reference pick while preemptions, crashes and restores wake sleeping
// jobs, and so does the quiet-record check: every record a pick leaves
// out of its scan is held to its from-scratch view, and an error-bound
// pick's quiet members and non-members to the reference earliest set.
func TestCopyAccounting(t *testing.T) {
	var killed, preempted, lost, certified int
	var quieted quietCount
	for _, scenario := range append([]string{"none"}, fault.Scenarios()...) {
		for _, p := range diffPolicies {
			t.Run(scenario+"/"+p.name, func(t *testing.T) {
				for _, dag := range []bool{false, true} {
					jobs, err := trace.Generate(shardTestTrace(80, 29, dag))
					if err != nil {
						t.Fatal(err)
					}
					byID := map[int]*task.Job{}
					for _, j := range jobs {
						byID[j.ID] = j
					}
					s, err := New(faultTestConfig(t, 29, scenario), p.factory(t))
					if err != nil {
						t.Fatal(err)
					}
					skips := attachSkipCheck(t, s)
					quiet := attachQuietCheck(t, s)
					stats, err := s.Run(jobs)
					if err != nil {
						t.Fatal(err)
					}
					certified += *skips
					quieted.deadline += quiet.deadline
					quieted.members += quiet.members
					quieted.outside += quiet.outside
					for _, r := range stats.Results {
						completed := int(math.Round(r.Accuracy * float64(r.NumTasks)))
						for _, ph := range byID[r.JobID].Phases {
							completed += ph.NumTasks
						}
						if exits := r.Killed + r.Preempted + r.Lost + completed; r.Launched != exits {
							t.Errorf("dag=%v job %d: launched %d copies, %d left (killed %d, preempted %d, lost %d, completed %d)",
								dag, r.JobID, r.Launched, exits, r.Killed, r.Preempted, r.Lost, completed)
						}
						killed, preempted, lost = killed+r.Killed, preempted+r.Preempted, lost+r.Lost
					}
				}
			})
		}
	}
	if killed == 0 || preempted == 0 || lost == 0 {
		t.Fatalf("runs killed %d, preempted %d and lost %d copies; every exit must be exercised", killed, preempted, lost)
	}
	if certified == 0 {
		t.Fatal("no decline certificate answered an offer; the certified-offer check checked nothing")
	}
	if quieted.deadline == 0 || quieted.members == 0 || quieted.outside == 0 {
		t.Fatalf("picks left records out of their scans %+v; the quiet-record check must check each kind", quieted)
	}
}

// TestStormAccounting: rack storms apply and always revert — after the run
// every machine's dynamic factor is back to 1 — and the stormed timeline
// diverges from the benign one.
func TestStormAccounting(t *testing.T) {
	cfg := faultTestConfig(t, 37, "rack-storm")
	tc := shardTestTrace(80, 37, false)
	jobs, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(cfg, policyUnderTest(t, "gs"))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Faults.Storms == 0 {
		t.Fatal("rack-storm scenario applied no storms")
	}
	for id := 0; id < cfg.Cluster.Machines; id++ {
		if f := sim.cl.Factor(id); f != 1 {
			t.Fatalf("machine %d still carries storm factor %v after the run", id, f)
		}
	}
	benign := cfg
	benign.Faults = fault.Config{}
	jobs2, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	simB, err := New(benign, policyUnderTest(t, "gs"))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := simB.Run(jobs2)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Faults != (FaultStats{}) {
		t.Fatalf("benign run reports fault stats: %+v", ref.Faults)
	}
	if reflect.DeepEqual(stats.Results, ref.Results) {
		t.Fatal("storms changed nothing — the stormed run matches the benign run")
	}
}

// TestInterferenceAccounting: bursts seize only free slots, never kill, and
// every seized slot is returned by the burst end (or parked by a crash), so
// the run ends fully free.
func TestInterferenceAccounting(t *testing.T) {
	cfg := faultTestConfig(t, 41, "contended")
	tc := shardTestTrace(80, 41, false)
	jobs, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(cfg, policyUnderTest(t, "gs"))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sim.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	f := stats.Faults
	if f.Bursts == 0 || f.InterferedSlots == 0 {
		t.Fatalf("contended scenario applied nothing: %+v", f)
	}
	if f.LostCopies != 0 {
		t.Fatalf("interference killed %d copies — it must only contend for free slots", f.LostCopies)
	}
	total := cfg.Cluster.Machines * cfg.Cluster.SlotsPerMachine
	if got := sim.cl.FreeSlots(); got != total {
		t.Fatalf("run ended with %d of %d slots free — a burst never released", got, total)
	}
}

// TestBenignRunBuildsNoInjector: the zero fault schedule is zero-cost by
// construction — New builds no injector at all, and the run reports zero
// fault stats. (The byte-identity of benign runs with the feature compiled
// in is pinned by the exp goldens and the perfwall allocs/event gates.)
func TestBenignRunBuildsNoInjector(t *testing.T) {
	cfg := shardTestConfig(43)
	sim, err := New(cfg, policyUnderTest(t, "gs"))
	if err != nil {
		t.Fatal(err)
	}
	if sim.flt != nil {
		t.Fatal("zero fault schedule built an injector")
	}
}

// TestShardConfigFaultScaling: ShardConfig scales the fault channels by the
// partition's machine share using the PRE-SPLIT machine total, and a
// disabled schedule passes through untouched.
func TestShardConfigFaultScaling(t *testing.T) {
	cfg := faultTestConfig(t, 47, "overload-mixed")
	var sumInv float64
	for p := 0; p < 4; p++ {
		sub := ShardConfig(cfg, p, 4)
		// Each partition's crash rate is 1/CrashEvery; the partitions must
		// tile the cluster-wide rate exactly.
		sumInv += 1 / sub.Faults.CrashEvery
		if sub.Faults.CrashDowntime != cfg.Faults.CrashDowntime {
			t.Fatalf("partition %d scaled an intensive field: %+v", p, sub.Faults)
		}
		wantEvery := cfg.Faults.CrashEvery * float64(cfg.Cluster.Machines) / float64(sub.Cluster.Machines)
		if math.Abs(sub.Faults.CrashEvery-wantEvery) > 1e-9 {
			t.Fatalf("partition %d: CrashEvery %v, want %v", p, sub.Faults.CrashEvery, wantEvery)
		}
	}
	if math.Abs(sumInv-1/cfg.Faults.CrashEvery) > 1e-9 {
		t.Fatalf("partition crash rates sum to %v, want %v", sumInv, 1/cfg.Faults.CrashEvery)
	}
	plain := shardTestConfig(47)
	sub := ShardConfig(plain, 1, 3)
	if sub.Faults != (fault.Config{}) {
		t.Fatalf("disabled schedule changed under ShardConfig: %+v", sub.Faults)
	}
}

// TestPartitionSlowdownDeterminism: a partition's machine slowdown vector is
// a pure function of (Config, part, parts) — rebuild the same partition and
// the heterogeneity draw is identical; different partitions draw different
// vectors (their cluster RNGs are independent substreams).
func TestPartitionSlowdownDeterminism(t *testing.T) {
	cfg := shardTestConfig(53)
	slowdowns := func(part, parts int) []float64 {
		sub := ShardConfig(cfg, part, parts)
		sim, err := New(sub, policyUnderTest(t, "nospec"))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, sub.Cluster.Machines)
		for i := range out {
			out[i] = sim.cl.Machine(i).Slowdown
		}
		return out
	}
	a := slowdowns(1, 3)
	b := slowdowns(1, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("rebuilding the same partition drew different machine slowdowns")
	}
	c := slowdowns(2, 3)
	if reflect.DeepEqual(a, c) {
		t.Fatal("distinct partitions drew identical machine slowdowns")
	}
}

// TestConfigValidateNonFinite: every float knob of sched.Config rejects NaN
// (which passes all ordered comparisons) and infinities — the cluster-sigma
// bug class, swept across this package's own fields.
func TestConfigValidateNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"duration beta nan", func(c *Config) { c.DurationBeta = nan }},
		{"duration beta inf", func(c *Config) { c.DurationBeta = inf }},
		{"duration cap nan", func(c *Config) { c.DurationCap = nan }},
		{"tail frac nan", func(c *Config) { c.TailFrac = nan }},
		{"tail start nan", func(c *Config) { c.TailStart = nan }},
		{"tail start inf", func(c *Config) { c.TailStart = inf }},
		{"fault crash every nan", func(c *Config) { c.Faults = fault.Config{CrashEvery: nan, CrashDowntime: 1} }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			cfg := DefaultConfig()
			m.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("non-finite configuration accepted")
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}
