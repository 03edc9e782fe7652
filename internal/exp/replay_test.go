package exp

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/approx-analytics/grass/internal/trace"
)

// replayTestConfig is a small but real mixed replay: all three job classes,
// speculation, deadlines and pooling all exercised.
func replayTestConfig(jobs int) ReplayConfig {
	rc := DefaultReplayConfig(jobs)
	rc.Machines = 40
	rc.Policy = "gs"
	return rc
}

func TestReplayAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("full streaming replay")
	}
	// 250 jobs: all three classes and multi-wave jobs appear, while the
	// test stays affordable under -race (the 100K CI smoke covers scale).
	rs, err := Replay(replayTestConfig(250))
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.DeadlineJobs + rs.ErrorJobs; got != 250 {
		t.Fatalf("classes sum to %d jobs, want 250", got)
	}
	if got := rs.BinCounts[0] + rs.BinCounts[1] + rs.BinCounts[2]; got != 250 {
		t.Fatalf("bins sum to %d jobs, want 250", got)
	}
	// The mixed workload must actually mix.
	if rs.DeadlineJobs == 0 || rs.ErrorJobs == 0 {
		t.Fatalf("degenerate mix: %d deadline, %d error", rs.DeadlineJobs, rs.ErrorJobs)
	}
	if rs.MeanAccuracy <= 0 || rs.MeanAccuracy > 1 {
		t.Fatalf("mean accuracy %v out of (0, 1]", rs.MeanAccuracy)
	}
	if rs.MeanInputDur <= 0 || rs.Makespan <= 0 || rs.Events == 0 || rs.Launched == 0 {
		t.Fatalf("empty aggregates: %+v", rs)
	}
	if rs.HeapHighWater == 0 || rs.HeapSysHighWater == 0 {
		t.Fatal("memory high-water not sampled")
	}
	var buf bytes.Buffer
	rs.Render(&buf)
	for _, line := range []string{"memory high-water", "bin <50 ", "bin 51-500 ", "bin >500 "} {
		if !strings.Contains(buf.String(), line) {
			t.Fatalf("render missing %q line:\n%s", line, buf.String())
		}
	}
}

// TestReplayDeterministic: the memory sampler only observes — two reruns
// of the same config agree on every simulation-derived number.
func TestReplayDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full streaming replay")
	}
	run := func() *ReplayStats {
		rs, err := Replay(replayTestConfig(120))
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	a, b := run(), run()
	if a.Events != b.Events || a.Makespan != b.Makespan ||
		a.MeanAccuracy != b.MeanAccuracy || a.MeanInputDur != b.MeanInputDur ||
		a.Launched != b.Launched || a.Killed != b.Killed {
		t.Fatalf("replay not deterministic:\n a: %+v\n b: %+v", a, b)
	}
}

// TestReplaySparkEstimatorNoise: a Spark replay runs under the harness's
// Spark estimator noise (§6.3.2), so it launches and kills exactly the
// copies the experiment harness's Spark run of the same trace does.
func TestReplaySparkEstimatorNoise(t *testing.T) {
	rc := replayTestConfig(60)
	rc.Framework = trace.Spark
	got, err := Replay(rc)
	if err != nil {
		t.Fatal(err)
	}
	c := Config{Jobs: rc.Jobs, Seeds: []int64{rc.Seed}, Machines: rc.Machines, SlotsPerMachine: rc.SlotsPerMachine, ErrorLoad: rc.Load}
	sets, err := c.runScenarios([]scenario{{w: rc.Workload, fw: trace.Spark, b: rc.Bound,
		policies: []policySpec{named(rc.Policy)}}})
	if err != nil {
		t.Fatal(err)
	}
	var launched, killed int64
	for _, r := range sets[0][rc.Policy][0] {
		launched += int64(r.Launched)
		killed += int64(r.Killed)
	}
	if got.Launched != launched || got.Killed != killed {
		t.Fatalf("Spark replay launched/killed %d/%d copies, the harness's Spark run %d/%d",
			got.Launched, got.Killed, launched, killed)
	}
}

func TestReplayRejectsBadConfig(t *testing.T) {
	if _, err := Replay(ReplayConfig{Jobs: 0}); err == nil {
		t.Fatal("zero-job replay accepted")
	}
	rc := DefaultReplayConfig(10)
	rc.Policy = "bogus"
	if _, err := Replay(rc); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestReplayShardInvariance: the zero Partitions is one partition, and a
// partitioned replay keeps every job. The worker count is no replay
// setting; the sched differential tests check its invariance.
func TestReplayShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full streaming replay")
	}
	run := func(partitions int) *ReplayStats {
		rc := replayTestConfig(200)
		rc.Partitions = partitions
		rs, err := Replay(rc)
		if err != nil {
			t.Fatal(err)
		}
		// Normalize the execution-only fields before comparison.
		rs.Wall, rs.ShardWalls = 0, nil
		rs.HeapHighWater, rs.HeapSysHighWater = 0, 0
		return rs
	}
	plain := run(1)
	if got := run(0); !reflect.DeepEqual(got, plain) {
		t.Fatalf("partitions=0 differs from partitions=1:\n got: %+v\nwant: %+v", got, plain)
	}
	four := run(4)
	if four.ErrorJobs+four.DeadlineJobs != 200 {
		t.Fatalf("partitioned replay lost jobs: %+v", four)
	}
}

// TestReplayShardedGolden pins the partitioned replay's headline
// aggregates for a fixed seed — the golden leg of the sharded-determinism
// evidence. These values must never move underneath a refactor of the
// sharding machinery: the model is only allowed to change when the
// partitioner or the engine changes deliberately (note it in the git
// history and regenerate, as with the simulation goldens).
func TestReplayShardedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full streaming replay")
	}
	rc := replayTestConfig(200)
	rc.Partitions = 4
	rs, err := Replay(rc)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("jobs=%d events=%d makespan=%.6f acc=%.6f dur=%.6f launched=%d killed=%d bins=%d/%d/%d",
		rs.DeadlineJobs+rs.ErrorJobs, rs.Events, rs.Makespan, rs.MeanAccuracy, rs.MeanInputDur,
		rs.Launched, rs.Killed, rs.BinCounts[0], rs.BinCounts[1], rs.BinCounts[2])
	const want = "jobs=200 events=35125 makespan=22663.595005 acc=0.485074 dur=212.074533 launched=53724 killed=18503 bins=104/70/26"
	if got != want {
		t.Fatalf("sharded replay golden moved:\n got: %s\nwant: %s", got, want)
	}
}

// TestReplayLearnEpochs: a multi-epoch sketch-learner replay carries
// merged learned state across epochs, stays deterministic across reruns,
// and reports the final epoch's aggregates for exactly one trace.
func TestReplayLearnEpochs(t *testing.T) {
	if testing.Short() {
		t.Skip("full streaming replay")
	}
	run := func() *ReplayStats {
		rc := replayTestConfig(150)
		rc.Policy = "grass"
		rc.Learner = "sketch"
		rc.LearnEpochs = 2
		rc.Partitions = 2
		rs, err := Replay(rc)
		if err != nil {
			t.Fatal(err)
		}
		rs.Wall, rs.ShardWalls = 0, nil
		rs.HeapHighWater, rs.HeapSysHighWater = 0, 0
		return rs
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("multi-epoch replay not deterministic:\n a: %+v\n b: %+v", a, b)
	}
	if got := a.DeadlineJobs + a.ErrorJobs; got != 150 {
		t.Fatalf("final-epoch aggregates cover %d jobs, want 150", got)
	}
	if a.Learner != "sketch" || a.LearnEpochs != 2 {
		t.Fatalf("learning config not echoed: %q/%d", a.Learner, a.LearnEpochs)
	}
	// The per-bin breakdown resets with the other aggregates each epoch, so
	// it sums to the final epoch's class totals.
	var sum BinStats
	var accSum, durSum float64
	for i, b := range a.Bins {
		if b.DeadlineJobs+b.ErrorJobs != a.BinCounts[i] {
			t.Fatalf("bin %d holds %d+%d jobs, BinCounts says %d", i, b.DeadlineJobs, b.ErrorJobs, a.BinCounts[i])
		}
		sum.DeadlineJobs += b.DeadlineJobs
		sum.ErrorJobs += b.ErrorJobs
		sum.Killed += b.Killed
		accSum += b.MeanAccuracy * float64(b.DeadlineJobs)
		durSum += b.MeanInputDur * float64(b.ErrorJobs)
	}
	if sum.DeadlineJobs != a.DeadlineJobs || sum.ErrorJobs != a.ErrorJobs || sum.Killed != a.Killed {
		t.Fatalf("bins sum to %d deadline / %d error jobs / %d killed, totals are %d / %d / %d",
			sum.DeadlineJobs, sum.ErrorJobs, sum.Killed, a.DeadlineJobs, a.ErrorJobs, a.Killed)
	}
	if math.Abs(accSum-a.MeanAccuracy*float64(a.DeadlineJobs)) > 1e-9 || math.Abs(durSum-a.MeanInputDur*float64(a.ErrorJobs)) > 1e-6 {
		t.Fatalf("bin means weight to accuracy sum %v, duration sum %v; totals %v, %v",
			accSum, durSum, a.MeanAccuracy*float64(a.DeadlineJobs), a.MeanInputDur*float64(a.ErrorJobs))
	}
	var buf bytes.Buffer
	a.Render(&buf)
	if !strings.Contains(buf.String(), "grass learning") {
		t.Fatalf("render missing learning line:\n%s", buf.String())
	}
}

func TestReplayLearnEpochsValidation(t *testing.T) {
	// Epochs need a mergeable learner: the default ring store cannot
	// carry state across epochs.
	rc := DefaultReplayConfig(10)
	rc.Policy = "grass"
	rc.LearnEpochs = 2
	if _, err := Replay(rc); err == nil {
		t.Fatal("ring-learner multi-epoch replay accepted")
	}
	rc = DefaultReplayConfig(10)
	rc.Learner = "bogus"
	if _, err := Replay(rc); err == nil {
		t.Fatal("unknown learner name accepted")
	}
	rc = DefaultReplayConfig(10)
	rc.LearnEpochs = -1
	if _, err := Replay(rc); err == nil {
		t.Fatal("negative epoch count accepted")
	}
	// A non-learning policy exports no state, so a second epoch has
	// nothing to seed — the replay must say so rather than silently
	// running independent passes.
	rc = DefaultReplayConfig(30)
	rc.Policy = "gs"
	rc.Learner = "sketch"
	rc.LearnEpochs = 2
	if _, err := Replay(rc); err == nil {
		t.Fatal("multi-epoch replay of a non-learning policy accepted")
	}
}
