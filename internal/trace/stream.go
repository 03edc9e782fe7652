package trace

import (
	"fmt"

	"github.com/approx-analytics/grass/internal/dist"
	"github.com/approx-analytics/grass/internal/task"
)

// Stream generates a trace lazily, one job per Next call, in arrival order.
// For a given Config (seed included) the emitted job sequence is
// byte-identical to Generate's: both draw from the same seeded RNG streams
// in the same order — Generate is just Stream plus materialization.
//
// Stream exists for replays at the paper's trace sizes (575K Facebook /
// 500K Bing jobs): materializing a million jobs costs gigabytes, while a
// stream keeps only the job being handed out. Callers that are done with a
// job (e.g. the simulator once the job finishes) can Release it back to the
// stream's pool, making a full replay's trace memory proportional to the
// number of jobs in flight, not the trace length.
//
// Stream implements the simulator's admission-source interface
// (sched.Source / sched.Releaser). It is not safe for concurrent use.
type Stream struct {
	cfg   Config
	scale float64

	sizeRNG  *dist.RNG
	workRNG  *dist.RNG
	boundRNG *dist.RNG
	arrRNG   *dist.RNG

	next int     // jobs emitted so far; the next job's ID
	now  float64 // next job's arrival time

	pool []*task.Job // released jobs awaiting reuse

	// shard/shards restrict emission to one residue class of job IDs
	// (NewShardStream). Non-owned jobs are still generated — into scratch,
	// reused across skips — so the RNG streams stay at exactly the
	// positions of the unsharded generator and every shard's jobs are
	// byte-identical to the corresponding jobs of the full trace.
	shard, shards int
	scratch       *task.Job
}

// NewStream validates cfg and positions a stream at the first job.
func NewStream(cfg Config) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := dist.NewRNG(cfg.Seed)
	return &Stream{
		cfg:      cfg,
		scale:    cfg.taskScale(),
		sizeRNG:  rng.Split(),
		workRNG:  rng.Split(),
		boundRNG: rng.Split(),
		arrRNG:   rng.Split(),
	}, nil
}

// NewShardStream returns a stream emitting partition shard's jobs of cfg's
// trace: the jobs whose ID ≡ shard (mod shards), in arrival order. The
// emitted jobs are byte-identical to the same-ID jobs of the full trace —
// the deterministic partitioner of a sharded simulation (sched.RunSharded):
// the union of the shards' streams is exactly NewStream's sequence, and
// every job belongs to exactly one shard.
//
// Skipped jobs still consume their RNG draws (generated into a reused
// scratch job), so a shard stream costs the full trace's generation work;
// that cost is small next to simulating the shard's jobs, and buys shards
// that share no state at all — each can run on its own goroutine.
// shards == 1 is NewStream exactly.
func NewShardStream(cfg Config, shard, shards int) (*Stream, error) {
	if shards < 1 {
		return nil, fmt.Errorf("trace: %d shards", shards)
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("trace: shard %d out of [0, %d)", shard, shards)
	}
	s, err := NewStream(cfg)
	if err != nil {
		return nil, err
	}
	s.shard, s.shards = shard, shards
	return s, nil
}

// Next returns the next job in arrival order, or (nil, false) once cfg.Jobs
// jobs have been emitted. The returned job is owned by the caller until it
// is passed to Release (releasing is optional — an unreleased job is plain
// garbage-collected memory).
func (s *Stream) Next() (*task.Job, bool) {
	for s.next < s.cfg.Jobs {
		if s.shards > 1 && s.next%s.shards != s.shard {
			// Not this shard's job: draw it into scratch to keep the RNG
			// streams in lockstep with the unsharded generator.
			if s.scratch == nil {
				s.scratch = &task.Job{}
			}
			s.fill(s.scratch)
			continue
		}
		j := s.take()
		s.fill(j)
		return j, true
	}
	return nil, false
}

// Release returns a job to the stream's pool so a later Next can reuse its
// backing arrays. The caller must not retain references into the job after
// releasing it. Releasing nil is a no-op.
func (s *Stream) Release(j *task.Job) {
	if j == nil {
		return
	}
	s.pool = append(s.pool, j)
}

// take pops a pooled job or mints a fresh one.
func (s *Stream) take() *task.Job {
	if n := len(s.pool); n > 0 {
		j := s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
		return j
	}
	return &task.Job{}
}

// workInflation is the expected ratio of actual to median copy duration
// under the simulator's straggler model (the mean of sched's default
// body+tail factor distribution is ≈1.75). Arrival spacing uses it so Load
// reflects capacity actually consumed.
const workInflation = 1.75

// fill generates one job in place. Every field is overwritten (pooled jobs
// carry stale values) and the RNG draw order exactly matches the original
// materializing generator, so pooling cannot change the trace.
func (s *Stream) fill(j *task.Job) {
	cfg := s.cfg
	n := sampleSize(cfg, s.sizeRNG)
	if cap(j.InputWork) >= n {
		j.InputWork = j.InputWork[:n]
	} else {
		j.InputWork = make([]float64, n)
	}
	sizeDist := dist.Lognormal{Mu: 0, Sigma: 0.8}
	for i := range j.InputWork {
		// Per-task data-size skew around the framework scale (median 1,
		// lognormal spread — the data skew of [19] that makes SJF/LJF
		// ordering matter). The simulator multiplies by the straggler
		// factor on top.
		f := sizeDist.Sample(s.workRNG)
		if f < 0.1 {
			f = 0.1
		}
		if f > 20 {
			f = 20
		}
		j.InputWork[i] = s.scale * f
	}
	j.ID = s.next
	j.Arrival = s.now
	j.Bound = task.Bound{}
	j.DeadlineFactor = 0
	j.IdealDuration = 0
	if dag := cfg.DAGLength; dag > 1 {
		if cap(j.Phases) >= dag-1 {
			j.Phases = j.Phases[:dag-1]
		} else {
			j.Phases = make([]task.Phase, dag-1)
		}
		for p := range j.Phases {
			// Intermediate phases aggregate: roughly a tenth of the
			// input task count, similar per-task work.
			nt := n / 10
			if nt < 1 {
				nt = 1
			}
			j.Phases[p] = task.Phase{NumTasks: nt, WorkScale: s.scale}
		}
	} else {
		j.Phases = nil
	}
	assignBound(&cfg, cfg.Bound, j, s.boundRNG)
	s.next++
	// Poisson arrivals: mean spacing makes the trace's real work
	// (ideal × straggler inflation) consume cfg.Load of the cluster.
	spacing := j.TotalWork() * workInflation / (float64(cfg.Slots) * cfg.Load)
	s.now += dist.Exponential{Mu: spacing}.Sample(s.arrRNG)
}
