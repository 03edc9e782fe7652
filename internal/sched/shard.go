// Sharded execution: one simulation partitioned across cores.
//
// The engine's global state — the fair-share dispatch over every active
// job, the shared slot pool, the estimator, the placement/duration RNG
// streams — couples every job to every other, so the exact global
// simulation cannot be computed in parallel without serializing on every
// event. Instead, partitioning is part of the MODEL, not the executor:
// a partitioned simulation splits the cluster's machines into P
// sub-clusters and the trace into P sub-traces (job ID mod P — the
// deterministic partitioner), and runs P fully independent copies of the
// plain engine, each with its own event loop, dispatch state, estimator,
// and RNG streams derived from the run seed by dist.SubSeed. This is the
// per-core state partitioning with a deterministic merge that DimmWitted
// applies to main-memory analytics: shards share no state at all, so they
// scale linearly and need no locks.
//
// The partition count P is the only parallelism setting: RunSharded runs
// one goroutine per partition by default. The worker count has NO
// semantic effect: every partition's output is a pure function of
// (Config, Seed, part, Parts), and the merge folds the per-partition
// results in canonical order, so RunStats are byte-identical for any
// worker count, any GOMAXPROCS, any interleaving. Every P takes the same
// path, P = 1 included, and P = 1 IS the plain engine: ShardSeed returns
// the seed unchanged, ShardConfig returns the config unchanged, and
// MergeShardStats returns the one partition's RunStats untouched, so the
// unsharded goldens hold exactly. The differential tests hold RunSharded
// to DeepEqual against a hand-composed sequence of plain-engine runs for
// every policy.

package sched

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approx-analytics/grass/internal/dist"
	"github.com/approx-analytics/grass/internal/spec"
)

// ShardSeed derives partition part's simulator seed for a P-way
// partitioned run. Partitions must not share RNG streams (their event
// loops interleave draws differently than one global loop would), so each
// gets an independent splittable child of the run seed. With parts == 1
// the seed is returned unchanged — the single partition is the plain
// engine, byte for byte.
func ShardSeed(seed int64, part, parts int) int64 {
	if parts <= 1 {
		return seed
	}
	return dist.SubSeed(seed, part)
}

// ShardConfig returns partition part's simulator configuration for a
// P-way partitioned run: the cluster's machines are split as evenly as
// integers allow (the first Machines mod P partitions take one extra
// machine) and the seed becomes the partition's ShardSeed. Everything
// else — slots per machine, straggler tails, estimator noise, the
// MaxEvents guard — carries over unchanged; MaxEvents bounds each
// partition's own event loop. With parts == 1 the config is returned
// unchanged.
func ShardConfig(cfg Config, part, parts int) Config {
	if parts <= 1 {
		return cfg
	}
	total := cfg.Cluster.Machines
	m := total / parts
	if part < total%parts {
		m++
	}
	// The fault schedule partitions with the machines: each channel's rate
	// scales by the partition's machine share (mean gaps stretch by
	// total/m), so the cluster-wide fault intensity is invariant in P.
	cfg.Faults = cfg.Faults.Shard(part, parts, m, total)
	cfg.Cluster.Machines = m
	cfg.Seed = ShardSeed(cfg.Seed, part, parts)
	return cfg
}

// ShardedRun describes one partitioned simulation for RunSharded.
type ShardedRun struct {
	// NewFactory builds the policy factory for one partition. Policy
	// state (GRASS's learner) must not be shared across partitions, so
	// the factory is constructed per partition with the partition's seed.
	NewFactory func(seed int64) (spec.Factory, error)
	// NewSource returns partition part's admission source — the jobs with
	// ID ≡ part (mod Parts), in arrival order (trace.NewShardStream).
	NewSource func(part int) (Source, error)
	// OnResult, when set, receives every job's result in ascending JobID
	// order — the canonical merge of the partitions' completion streams —
	// instead of results accumulating in RunStats.Results. Requires Jobs.
	//
	// The merge never blocks a partition: out-of-order completions buffer
	// until their IDs come up, so the buffer holds the partitions'
	// completion SKEW. With the default one worker per partition every
	// partition runs concurrently and the skew is the in-flight window
	// (small); with fewer workers a partition can run to completion before
	// the partition owning the merge frontier even starts, and the buffer
	// grows to that partition's whole result set.
	OnResult func(JobResult)
	// OnLearned, when set, receives the canonical ascending-partition
	// merge of the per-partition factories' learned states after the run
	// (MergeLearnedStates) — nil when no partition exported state (a
	// non-learning policy, or a learner that is not mergeable). The
	// merged state is exact: per-partition sketch stores fold bucket-wise,
	// so the result is byte-identical for any worker count and equals the
	// state a single factory fed every partition's samples would hold.
	OnLearned func(spec.LearnedState)
	// Learned, when non-nil, seeds every partition's factory with
	// previously merged learned state (spec.SharedLearner.SeedLearned) —
	// the "next epoch" half of partition-invariant learning: each
	// partition starts from the combined cluster history instead of an
	// empty, partition-scoped store. The seeded base is query-only:
	// OnLearned still receives only THIS run's recordings, so an epoch
	// driver accumulates history by merging successive OnLearned values
	// (the shared base is never folded P times). Factories that do not
	// implement spec.SharedLearner ignore it.
	Learned spec.LearnedState
	// Ctx, when non-nil, cancels the run: every partition's event loop
	// checks it periodically (Simulator.SetContext) and workers stop
	// claiming new partitions once it is done. RunSharded then returns
	// ctx.Err(). An installed OnResult fold may have observed a prefix of
	// the canonical result stream before the cancel surfaced.
	Ctx context.Context
	// Walls, when non-nil with len ≥ Parts, receives each partition's
	// wall-clock execution time (distinct indices, so concurrent workers
	// never contend). Σ walls / max walls is the parallel-scaling bound
	// the shard-scaling benchmarks report.
	Walls []time.Duration
	// Config is the unpartitioned simulator configuration; each partition
	// runs under ShardConfig(Config, part, Parts).
	Config Config
	// Parts is the number of logical partitions — the model: how the
	// cluster and trace are split. 1 reduces to the plain engine. It must
	// not exceed the cluster's machine count.
	Parts int
	// Workers is the number of goroutines executing partitions. It never
	// affects results; 0 means one goroutine per partition, and values
	// above Parts are clamped. Tests set fewer to check that invariance.
	Workers int
	// Jobs is the total job count when OnResult is set: the merge layer
	// interleaves the partition streams by the dense ID sequence
	// 0..Jobs-1 (partition p must emit exactly the IDs ≡ p mod Parts).
	Jobs int
}

// RunSharded executes a partitioned simulation and merges the partition
// results deterministically. See the file comment for the semantics: the
// partition count is part of the model, the worker count is not.
func RunSharded(r ShardedRun) (*RunStats, error) {
	if r.Parts < 1 {
		return nil, fmt.Errorf("sched: %d partitions", r.Parts)
	}
	if r.NewFactory == nil || r.NewSource == nil {
		return nil, fmt.Errorf("sched: sharded run needs NewFactory and NewSource")
	}
	if err := r.Config.Validate(); err != nil {
		return nil, err
	}
	if r.Parts > r.Config.Cluster.Machines {
		return nil, fmt.Errorf("sched: %d partitions exceed %d machines (a partition needs at least one)",
			r.Parts, r.Config.Cluster.Machines)
	}
	if r.OnResult != nil && r.Jobs <= 0 {
		return nil, fmt.Errorf("sched: sharded OnResult needs the total job count")
	}

	workers := r.Workers
	if workers <= 0 || workers > r.Parts {
		workers = r.Parts
	}

	stats := make([]*RunStats, r.Parts)
	errs := make([]error, r.Parts)
	var learned []spec.LearnedState
	if r.OnLearned != nil {
		learned = make([]spec.LearnedState, r.Parts)
	}
	var merge *shardMerge
	var mergeErr error
	mergeDone := make(chan struct{})
	if r.OnResult != nil {
		merge = newShardMerge()
		go func() {
			defer close(mergeDone)
			mergeErr = merge.run(r.Parts, r.Jobs, r.OnResult)
		}()
	} else {
		close(mergeDone)
	}

	// Workers claim partitions from a shared counter. Which worker runs a
	// partition — and when — cannot matter: partitions share no state, and
	// every per-partition output lands in its own slot.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				p := int(next.Add(1)) - 1
				if p >= r.Parts {
					return
				}
				if r.Ctx != nil && r.Ctx.Err() != nil {
					// Cancelled: don't start the partition, but still end
					// its result stream — merge.run waits for every
					// partition to finish, and a skipped finish would
					// deadlock the <-mergeDone below.
					errs[p] = r.Ctx.Err()
					if merge != nil {
						merge.finish()
					}
					continue
				}
				t0 := time.Now()
				var partLearned spec.LearnedState
				stats[p], partLearned, errs[p] = r.runPart(p, merge)
				if learned != nil {
					learned[p] = partLearned
				}
				if r.Walls != nil && p < len(r.Walls) {
					r.Walls[p] = time.Since(t0)
				}
				if merge != nil {
					merge.finish()
				}
			}
		}()
	}
	wg.Wait()
	<-mergeDone

	// A deterministic error: the lowest-index partition failure wins, and
	// only then a merge failure (a missing result is always the echo of
	// some partition failing or a source emitting the wrong ID set).
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if mergeErr != nil {
		return nil, mergeErr
	}
	if r.OnLearned != nil {
		r.OnLearned(MergeLearnedStates(learned))
	}
	return MergeShardStats(r.Config, r.Parts, stats), nil
}

// seedLearned pre-loads a factory with merged learned state when both
// sides support it.
func seedLearned(factory spec.Factory, state spec.LearnedState) {
	if state == nil {
		return
	}
	if sl, ok := factory.(spec.SharedLearner); ok {
		sl.SeedLearned(state)
	}
}

// exportLearned snapshots a factory's mergeable learned state, or nil.
func exportLearned(factory spec.Factory) spec.LearnedState {
	if sl, ok := factory.(spec.SharedLearner); ok {
		return sl.ExportLearned()
	}
	return nil
}

// MergeLearnedStates folds per-partition learned states in ascending
// partition order — the canonical merge, exported alongside
// MergeShardStats so the differential harness can compose plain-engine
// runs exactly the way RunSharded does. nil entries (cancelled or
// non-exporting partitions) are skipped; the result is nil when nothing
// was exported. The first non-nil state becomes the accumulator, so
// callers own the returned value only as much as they owned the inputs
// (RunSharded's inputs are per-partition exports owned by the merge).
func MergeLearnedStates(states []spec.LearnedState) spec.LearnedState {
	var acc spec.LearnedState
	for _, s := range states {
		if s == nil {
			continue
		}
		if acc == nil {
			acc = s
			continue
		}
		acc.MergeLearned(s)
	}
	return acc
}

// runPart executes one partition: its own factory, simulator, and source,
// all derived from the partition index — nothing shared with any other
// partition. The partition's exported learned state (nil for
// non-learning factories) rides back alongside the stats for the
// canonical post-run merge.
func (r ShardedRun) runPart(p int, merge *shardMerge) (*RunStats, spec.LearnedState, error) {
	factory, err := r.NewFactory(ShardSeed(r.Config.Seed, p, r.Parts))
	if err != nil {
		return nil, nil, err
	}
	seedLearned(factory, r.Learned)
	sim, err := New(ShardConfig(r.Config, p, r.Parts), factory)
	if err != nil {
		return nil, nil, err
	}
	if r.Ctx != nil {
		sim.SetContext(r.Ctx)
	}
	if merge != nil {
		sim.OnResult(merge.push)
	}
	src, err := r.NewSource(p)
	if err != nil {
		return nil, nil, err
	}
	stats, err := sim.RunSource(src)
	if err != nil {
		return nil, nil, err
	}
	var out spec.LearnedState
	if r.OnLearned != nil { // exporting clones the store; skip unless asked
		out = exportLearned(factory)
	}
	return stats, out, nil
}

// shardMerge interleaves the partitions' completion-ordered result
// streams into the canonical ascending-JobID fold order. push NEVER
// blocks a partition — blocking a producer would deadlock whenever the
// worker pool is smaller than the partition count (the partition owning
// the merge frontier may not have started yet) and would serialize the
// lead partition otherwise — so out-of-order completions buffer until the
// frontier reaches them. The buffer therefore holds the partitions'
// completion skew; see ShardedRun.OnResult for the sizing contract.
type shardMerge struct {
	pending map[int]JobResult
	cond    sync.Cond
	done    int // partitions whose result streams have ended
	mu      sync.Mutex
}

func newShardMerge() *shardMerge {
	m := &shardMerge{pending: make(map[int]JobResult)}
	m.cond.L = &m.mu
	return m
}

// push hands one partition result to the merge (called from partition
// workers, any order).
func (m *shardMerge) push(r JobResult) {
	m.mu.Lock()
	m.pending[r.JobID] = r
	m.mu.Unlock()
	m.cond.Signal()
}

// finish records the end of one partition's stream.
func (m *shardMerge) finish() {
	m.mu.Lock()
	m.done++
	m.mu.Unlock()
	m.cond.Signal()
}

// run folds results in ascending JobID order: the frontier advances to
// each ID as it arrives, and ends early — with a diagnostic — if every
// partition finished without producing the frontier ID. It returns only
// after all partitions ended, so a source emitting IDs outside 0..jobs-1
// is always detected, never silently dropped.
func (m *shardMerge) run(parts, jobs int, fold func(JobResult)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for n := 0; n < jobs; n++ {
		for {
			if r, ok := m.pending[n]; ok {
				delete(m.pending, n)
				m.mu.Unlock()
				fold(r) // without the lock: pushes must not wait on the fold
				m.mu.Lock()
				break
			}
			if m.done == parts {
				return fmt.Errorf("sched: partitions finished without job %d's result (partition %d's source must emit it)",
					n, n%parts)
			}
			m.cond.Wait()
		}
	}
	for m.done < parts {
		m.cond.Wait()
	}
	if len(m.pending) > 0 {
		return fmt.Errorf("sched: %d results beyond the %d expected jobs (sources must emit IDs 0..Jobs-1 exactly)",
			len(m.pending), jobs)
	}
	return nil
}

// MergeShardStats folds per-partition RunStats into the partitioned run's
// aggregate, in ascending partition order — the canonical merge, exported
// so the differential harness can compose plain-engine runs exactly the
// way RunSharded does. With one partition, its RunStats are returned
// untouched; with more, the fields merge as follows:
//
//   - Results: concatenated and sorted by JobID (the plain engine's
//     ordering). Empty when the run streamed results through OnResult.
//   - Makespan: the latest partition finish.
//   - Events: summed.
//   - MeanUtilization: busy-slot-time over total-slot-time through the
//     merged makespan — Σ util_p·slots_p·makespan_p over slots·makespan.
//     A partition idling after its own last job counts as idle, exactly
//     as an idle region of one big cluster would.
//   - EstimatorAccuracy: event-weighted mean of the partitions' measured
//     accuracies — a deterministic diagnostic (per-partition sample
//     counts are not retained, so exact pooling is not reconstructable).
func MergeShardStats(cfg Config, parts int, stats []*RunStats) *RunStats {
	if parts == 1 {
		// One partition is the plain engine: recomputing the utilization
		// and accuracy means would change their low bits.
		return stats[0]
	}
	merged := &RunStats{}
	var busyIntegral, accWeighted float64
	var totalSlots int
	for p := 0; p < parts; p++ {
		s := stats[p]
		slots := ShardConfig(cfg, p, parts).Cluster.Machines * cfg.Cluster.SlotsPerMachine
		totalSlots += slots
		merged.Results = append(merged.Results, s.Results...)
		if s.Makespan > merged.Makespan {
			merged.Makespan = s.Makespan
		}
		merged.Events += s.Events
		busyIntegral += s.MeanUtilization * float64(slots) * s.Makespan
		accWeighted += s.EstimatorAccuracy * float64(s.Events)
		merged.Faults.Crashes += s.Faults.Crashes
		merged.Faults.Restores += s.Faults.Restores
		merged.Faults.Storms += s.Faults.Storms
		merged.Faults.Bursts += s.Faults.Bursts
		merged.Faults.LostCopies += s.Faults.LostCopies
		merged.Faults.InterferedSlots += s.Faults.InterferedSlots
	}
	if merged.Makespan > 0 && totalSlots > 0 {
		merged.MeanUtilization = busyIntegral / (float64(totalSlots) * merged.Makespan)
	}
	if merged.Events > 0 {
		merged.EstimatorAccuracy = accWeighted / float64(merged.Events)
	}
	sort.Slice(merged.Results, func(i, j int) bool { return merged.Results[i].JobID < merged.Results[j].JobID })
	return merged
}
