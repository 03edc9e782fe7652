package traceio

import (
	"fmt"
	"io"
	"io/fs"

	"github.com/approx-analytics/grass/internal/task"
)

// decoder is the per-format streaming contract: decode the next job into a
// (possibly recycled) job value, or stop at end of stream / first error. A
// nil job passes over the next job: another shard's, which must still be
// decoded to keep job IDs dense and to fail where the full stream fails.
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
// shard reader reads the full file, so the dense ID assignment is
// identical across shards and every shard fails at the first malformed
// record whoever owns it. A SWIM reader only parses, order-checks and
// task-count-checks the other shards' records, without mapping them;
// Google's grouping is stateful, so its reader decodes every job.
func NewShardSource(fsys fs.FS, path string, format Format, o Options, shard, shards int) (*Source, error) {
	if shards < 1 {
		return nil, fmt.Errorf("traceio: %d shards", shards)
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("traceio: shard %d out of [0, %d)", shard, shards)
	}
	rc, err := openTrace(fsys, path, o)
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
	for s.shards > 1 && s.emit%s.shards != s.shard {
		if !s.dec.next(nil) {
			return nil, false
		}
		s.emit++
	}
	j := s.take()
	if !s.dec.next(j) {
		s.Release(j)
		return nil, false
	}
	s.emit++
	return j, true
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
