package trace

import (
	"reflect"
	"testing"

	"github.com/approx-analytics/grass/internal/task"
)

// streamConfigs spans the generator's behavioural axes: workload, framework,
// every bound mode (including mixed), and DAG jobs.
func streamConfigs() []Config {
	var cfgs []Config
	for _, w := range []Workload{Facebook, Bing} {
		for _, b := range []BoundMode{DeadlineBound, ErrorBound, ExactBound, MixedBound} {
			c := DefaultConfig(w, Hadoop, b)
			c.Jobs = 60
			cfgs = append(cfgs, c)
		}
	}
	spark := DefaultConfig(Facebook, Spark, ErrorBound)
	spark.Jobs = 60
	cfgs = append(cfgs, spark)
	dag := DefaultConfig(Bing, Hadoop, DeadlineBound)
	dag.Jobs = 40
	dag.DAGLength = 4
	cfgs = append(cfgs, dag)
	return cfgs
}

// cloneJob deep-copies a job so comparisons survive pooling's reuse of the
// original's backing arrays.
func cloneJob(j *task.Job) *task.Job {
	c := *j
	c.InputWork = append([]float64(nil), j.InputWork...)
	if j.Phases != nil {
		c.Phases = append([]task.Phase(nil), j.Phases...)
	}
	return &c
}

// TestStreamMatchesGenerate is the streaming pipeline's core guarantee: for
// any config, the lazily emitted job sequence is identical — field for
// field — to the materialized trace from the same seed.
func TestStreamMatchesGenerate(t *testing.T) {
	for _, cfg := range streamConfigs() {
		want, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			j, ok := s.Next()
			if !ok {
				if i != len(want) {
					t.Fatalf("%v/%v: stream ended after %d jobs, want %d", cfg.Workload, cfg.Bound, i, len(want))
				}
				break
			}
			if !reflect.DeepEqual(j, want[i]) {
				t.Fatalf("%v/%v: streamed job %d differs from generated:\n stream: %+v\n generate: %+v",
					cfg.Workload, cfg.Bound, i, j, want[i])
			}
		}
		if _, ok := s.Next(); ok {
			t.Fatalf("%v/%v: Next returned a job past the end", cfg.Workload, cfg.Bound)
		}
	}
}

// TestStreamPoolingPreservesTrace releases every job straight back to the
// pool and checks reuse cannot perturb later jobs: values still match the
// materialized trace, and the pooled objects really are recycled.
func TestStreamPoolingPreservesTrace(t *testing.T) {
	cfg := DefaultConfig(Facebook, Hadoop, MixedBound)
	cfg.Jobs = 120
	cfg.DAGLength = 3
	want, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prev *task.Job
	reused := false
	for i := 0; ; i++ {
		j, ok := s.Next()
		if !ok {
			break
		}
		if j == prev {
			reused = true
		}
		if !reflect.DeepEqual(j, want[i]) {
			t.Fatalf("pooled stream job %d differs from generated trace", i)
		}
		s.Release(j)
		prev = j
	}
	if !reused {
		t.Fatal("released jobs were never reused by the pool")
	}
	s.Release(nil) // no-op
}

// checkShardPartition verifies the deterministic partitioner's contract
// for one (cfg, shards) cell: every shard stream emits exactly its residue
// class, byte-identical to the full trace's jobs, in arrival order, and
// the classes tile the trace with nothing missing or duplicated.
func checkShardPartition(t *testing.T, cfg Config, shards int) {
	t.Helper()
	want, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, len(want))
	for shard := 0; shard < shards; shard++ {
		s, err := NewShardStream(cfg, shard, shards)
		if err != nil {
			t.Fatal(err)
		}
		prevArrival := -1.0
		for {
			j, ok := s.Next()
			if !ok {
				break
			}
			if j.ID%shards != shard {
				t.Fatalf("shard %d/%d emitted job %d of the wrong residue", shard, shards, j.ID)
			}
			if seen[j.ID] {
				t.Fatalf("job %d emitted by two shards", j.ID)
			}
			seen[j.ID] = true
			if !reflect.DeepEqual(j, want[j.ID]) {
				t.Fatalf("shard %d/%d: job %d differs from the full trace's", shard, shards, j.ID)
			}
			if j.Arrival < prevArrival {
				t.Fatalf("shard %d/%d: job %d arrives at %v after %v", shard, shards, j.ID, j.Arrival, prevArrival)
			}
			prevArrival = j.Arrival
			s.Release(j) // shard streams recycle like plain streams
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("job %d emitted by no shard", id)
		}
	}
}

// TestShardStreamPartition: the shard streams tile the trace exactly, for
// every workload axis and several shard counts — including shards beyond
// the job count (some shards then emit nothing).
func TestShardStreamPartition(t *testing.T) {
	for _, cfg := range streamConfigs() {
		for _, shards := range []int{2, 3, 8} {
			checkShardPartition(t, cfg, shards)
		}
	}
	tiny := DefaultConfig(Facebook, Hadoop, MixedBound)
	tiny.Jobs = 3
	checkShardPartition(t, tiny, 8)
}

// TestShardStreamOneShardIsPlain: shards == 1 must be NewStream exactly.
func TestShardStreamOneShardIsPlain(t *testing.T) {
	cfg := DefaultConfig(Bing, Hadoop, MixedBound)
	cfg.Jobs = 50
	plain, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardStream(cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for {
		a, okA := plain.Next()
		b, okB := sharded.Next()
		if okA != okB {
			t.Fatalf("streams ended at different lengths")
		}
		if !okA {
			break
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("job %d differs between NewStream and NewShardStream(0, 1)", a.ID)
		}
	}
}

// TestShardStreamRejectsBadShards: the partitioner's bounds are validated.
func TestShardStreamRejectsBadShards(t *testing.T) {
	cfg := DefaultConfig(Facebook, Hadoop, ErrorBound)
	cfg.Jobs = 5
	for _, bad := range [][2]int{{0, 0}, {-1, 2}, {2, 2}, {0, -3}} {
		if _, err := NewShardStream(cfg, bad[0], bad[1]); err == nil {
			t.Fatalf("NewShardStream(%d, %d) accepted", bad[0], bad[1])
		}
	}
}

// FuzzShardStreamPartition fuzzes the partitioner over trace shape and
// shard count: whatever the configuration, the shards must tile the full
// trace byte-identically. This is the fuzz leg of the sharded-determinism
// evidence — the simulation layers above consume exactly these streams.
func FuzzShardStreamPartition(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(2), uint8(0), uint8(1))
	f.Add(int64(7), uint8(33), uint8(5), uint8(3), uint8(3))
	f.Add(int64(42), uint8(1), uint8(7), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, jobs, shards, boundMode, dagLen uint8) {
		nj := int(jobs)%64 + 1
		ns := int(shards)%9 + 1
		cfg := DefaultConfig(Facebook, Hadoop, BoundMode(int(boundMode)%4))
		cfg.Jobs = nj
		cfg.Seed = seed
		cfg.DAGLength = int(dagLen) % 4
		want, err := Generate(cfg)
		if err != nil {
			t.Skip() // invalid config permutation
		}
		seen := 0
		for shard := 0; shard < ns; shard++ {
			s, err := NewShardStream(cfg, shard, ns)
			if err != nil {
				t.Fatal(err)
			}
			for {
				j, ok := s.Next()
				if !ok {
					break
				}
				if j.ID%ns != shard || !reflect.DeepEqual(j, want[j.ID]) {
					t.Fatalf("shard %d/%d: job %d wrong or differs from full trace", shard, ns, j.ID)
				}
				seen++
			}
		}
		if seen != nj {
			t.Fatalf("shards emitted %d jobs, want %d", seen, nj)
		}
	})
}

// TestMixedBoundComposition checks the mixed workload really carries all
// three job classes with valid bounds.
func TestMixedBoundComposition(t *testing.T) {
	cfg := DefaultConfig(Facebook, Hadoop, MixedBound)
	cfg.Jobs = 400
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var deadline, errBound, exact int
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatalf("job %d invalid: %v", j.ID, err)
		}
		switch {
		case j.Bound.Kind == task.DeadlineBound:
			deadline++
			if j.DeadlineFactor <= 0 || j.IdealDuration <= 0 {
				t.Fatalf("job %d: deadline job without calibration (factor %v, ideal %v)",
					j.ID, j.DeadlineFactor, j.IdealDuration)
			}
		case j.Bound.Epsilon > 0:
			errBound++
		default:
			exact++
		}
	}
	// 45/45/10 split over 400 jobs: each class must clearly show up.
	if deadline < 100 || errBound < 100 || exact < 10 {
		t.Fatalf("mixed composition off: %d deadline, %d error, %d exact", deadline, errBound, exact)
	}
}

// TestBoundModeValidation: unknown modes are rejected, mixed is accepted.
func TestBoundModeValidation(t *testing.T) {
	c := DefaultConfig(Facebook, Hadoop, MixedBound)
	if err := c.Validate(); err != nil {
		t.Fatalf("mixed bound rejected: %v", err)
	}
	c.Bound = BoundMode(99)
	if c.Validate() == nil {
		t.Fatal("unknown bound mode accepted")
	}
	if got := MixedBound.String(); got != "mixed" {
		t.Fatalf("MixedBound.String() = %q", got)
	}
}
