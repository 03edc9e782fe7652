package traceio

import (
	"fmt"
	"io"
	"io/fs"

	"github.com/approx-analytics/grass/internal/task"
)

// decoder is the per-format streaming contract: decode the next job into a
// (possibly recycled) job value, or stop at end of stream / first error.
type decoder interface {
	next(j *task.Job) bool
	err() error
}

// Source streams an imported trace as simulator jobs: it implements
// sched.Source and sched.Releaser (and the structurally identical
// trace.Source/trace.Releaser), so every replay entry point accepts it
// wherever a synthetic trace.Stream goes. Released jobs recycle through a
// pool, keeping a replay's import memory proportional to the jobs in
// flight. Not safe for concurrent use.
//
// Decode errors cannot surface through Next (the streaming interface has no
// error channel — by design, matching trace.Stream): a malformed record
// ends the stream early, and Err reports the positioned DecodeError.
// Callers that need errors up front run Scan first; the replay entry points
// (exp.Replay, grass-bench) do both.
type Source struct {
	dec           decoder
	rc            io.ReadCloser
	pool          []*task.Job
	emit          int // jobs handed out (dense ID space, all shards)
	shard, shards int
	scratch       *task.Job
}

// NewSource opens path inside fsys (".gz" transparently decompressed) and
// streams its jobs in arrival order. fsys nil means the host filesystem.
// The caller should Close the source when done (finishing the stream also
// releases the file).
func NewSource(fsys fs.FS, path string, format Format, o Options) (*Source, error) {
	return NewShardSource(fsys, path, format, o, 0, 1)
}

// NewShardSource streams partition shard's jobs of the imported trace: the
// jobs whose dense ID ≡ shard (mod shards), in arrival order — the same
// deterministic partitioner trace.NewShardStream applies to synthetic
// traces, so sched.RunSharded replays imported traces unchanged. Every
// shard reader decodes the full file (jobs are cheap next to simulating
// them); skipped jobs land in a reused scratch value, so the dense ID
// assignment is identical across shards and memory stays bounded.
func NewShardSource(fsys fs.FS, path string, format Format, o Options, shard, shards int) (*Source, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if shards < 1 {
		return nil, fmt.Errorf("traceio: %d shards", shards)
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("traceio: shard %d out of [0, %d)", shard, shards)
	}
	if fsys == nil {
		fsys = OSFS()
	}
	rc, err := openFile(fsys, path)
	if err != nil {
		return nil, err
	}
	s := NewShardReaderSource(rc, path, format, o, shard, shards)
	s.rc = rc
	return s, nil
}

// NewReaderSource streams jobs from an already-open reader (a pipe, a
// network stream, a test buffer). name labels error positions. Options are
// assumed valid (NewShardSource validates); invalid options surface as
// decode-time errors where they matter.
func NewReaderSource(r io.Reader, name string, format Format, o Options) *Source {
	sc := newLineScanner(r, name)
	var dec decoder
	switch format {
	case GoogleTaskEvents:
		dec = newGoogleDecoder(sc, o)
	default:
		dec = newSWIMDecoder(sc, o)
	}
	return &Source{dec: dec, shards: 1}
}

// NewShardReaderSource is NewReaderSource restricted to one partition's
// jobs (dense ID ≡ shard mod shards), for callers that shard streams not
// backed by a re-openable file — pipes, synthesized readers in tests. The
// caller supplies one reader per shard over identical bytes; shard/shards
// are assumed valid (NewShardSource validates the file-backed path).
func NewShardReaderSource(r io.Reader, name string, format Format, o Options, shard, shards int) *Source {
	s := NewReaderSource(r, name, format, o)
	s.shard, s.shards = shard, shards
	return s
}

// Next returns the next job in arrival order, or (nil, false) at end of
// stream — including a stream cut short by a decode error (check Err).
func (s *Source) Next() (*task.Job, bool) {
	for {
		var j *task.Job
		if s.shards > 1 && s.emit%s.shards != s.shard {
			// Not this shard's job: decode into scratch to keep the dense
			// ID sequence (and bound-assignment streams) in lockstep with
			// the unsharded reader.
			if s.scratch == nil {
				s.scratch = &task.Job{}
			}
			j = s.scratch
		} else {
			j = s.take()
		}
		if !s.dec.next(j) {
			if j != s.scratch {
				s.Release(j)
			}
			return nil, false
		}
		owned := j != s.scratch
		s.emit++
		if owned {
			return j, true
		}
	}
}

// Release returns a job to the pool for reuse by a later Next. Releasing
// nil is a no-op.
func (s *Source) Release(j *task.Job) {
	if j == nil {
		return
	}
	s.pool = append(s.pool, j)
}

// Err reports the decode error that ended the stream early, if any. It is
// meaningful once Next has returned false; a clean end of file leaves it
// nil.
func (s *Source) Err() error { return s.dec.err() }

// Close releases the underlying file. Safe to call on reader-backed
// sources (no-op) and more than once.
func (s *Source) Close() error {
	if s.rc == nil {
		return nil
	}
	rc := s.rc
	s.rc = nil
	return rc.Close()
}

// take pops a pooled job or mints a fresh one.
func (s *Source) take() *task.Job {
	if n := len(s.pool); n > 0 {
		j := s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
		return j
	}
	return &task.Job{}
}

// ScanStats summarizes a validation pass over an imported trace. Everything
// is O(1) in the trace length.
type ScanStats struct {
	Format    Format
	Jobs      int
	Tasks     int
	Phases    int // jobs with a downstream (reduce) phase
	Bins      [3]int
	Span      float64 // last arrival, simulation time units
	TotalWork float64
	MeanTasks float64
}

// Scan decodes the whole file in bounded memory without simulating,
// validating every record and every mapped job: the up-front pass the
// replay entry points run so a malformed record fails with its position
// before any simulation starts, and so the sharded merge knows the total
// job count. fsys nil means the host filesystem.
func Scan(fsys fs.FS, path string, format Format, o Options) (*ScanStats, error) {
	src, err := NewSource(fsys, path, format, o)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	st := &ScanStats{Format: format}
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("traceio: %s: job %d invalid after mapping: %w", path, j.ID, err)
		}
		st.Jobs++
		st.Tasks += j.NumTasks()
		if len(j.Phases) > 0 {
			st.Phases++
		}
		st.Bins[int(j.Bin())]++
		if j.Arrival > st.Span {
			st.Span = j.Arrival
		}
		st.TotalWork += j.TotalWork()
		src.Release(j)
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	if st.Jobs > 0 {
		st.MeanTasks = float64(st.Tasks) / float64(st.Jobs)
	}
	return st, nil
}
