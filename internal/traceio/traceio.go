// Package traceio imports real cluster traces into the simulator's job
// model. The paper's evaluation replays 575K Facebook Hadoop jobs and 500K
// Bing Dryad jobs; those traces are proprietary, but public releases of the
// same lineage exist — SWIM's Facebook workload samples and Google's
// cluster-data — and this package turns them into trace.Source-compatible
// streams so policy claims can be replayed against real cluster logs
// instead of synthetic lookalikes.
//
// The design is schema-first, following the streaming-ingestion shape of
// large-trace systems work:
//
//   - each format gets a typed record struct (SWIMRecord, GoogleTaskEvent)
//     decoded field by field with validation, never a stringly map;
//   - every validation error carries the file, line and column it was found
//     at (DecodeError), so a malformed multi-GB log points at the offending
//     record, not at "parse failed";
//   - decode is streaming end to end: records are read line by line through
//     an io/fs.FS opener (plain or gzip), jobs are emitted one at a time in
//     arrival order, and finished jobs recycle through a pool — a multi-GB
//     log replays in the same bounded memory as the synthetic streams
//     (trace.Stream) the simulator was built around. A SWIM record decodes
//     without allocating: its fields are parsed from the line's bytes,
//     plain decimals take an exact fast path, and a job's reduce-phase
//     backing is reused;
//   - Scan, the validation pass every imported replay runs first, decodes a
//     SWIM file on every core: a reader goroutine packs record lines into
//     blocks, GOMAXPROCS workers decode and validate the blocks with the
//     stream's own per-record step, and the caller folds the block
//     summaries in file order. The result, and the first error in file
//     order, are the stream's at any GOMAXPROCS, and at most 2 × workers
//     blocks are in flight. Google task_events are scanned on one core:
//     their jobs span lines and their grouping is stateful;
//   - the record→job mapping rules (task count, per-task work, bound
//     assignment) are explicit Options with documented defaults, unit-tested
//     per format.
//
// Sources implement sched.Source + sched.Releaser, so every existing replay
// entry point — Simulator.RunSource, sched.RunSharded, exp.Replay,
// grass-bench — accepts an imported trace wherever it accepts a synthetic
// stream. Jobs are renumbered densely 0..N-1 in arrival order (original
// trace identifiers are format-specific strings); that makes the sharded
// partitioner (ID mod P) apply to imported traces unchanged.
package traceio

import (
	"fmt"
	"strings"

	"github.com/approx-analytics/grass/internal/trace"
)

// Format identifies a supported trace file format.
type Format int

const (
	// SWIM is the SWIM/Facebook workload format (Chen et al.'s Statistical
	// Workload Injector for MapReduce): tab-separated records, one job per
	// line, six fields —
	//
	//	job_id \t submit_time_s \t inter_arrival_gap_s \t
	//	map_input_bytes \t shuffle_bytes \t reduce_output_bytes
	//
	// as in the published FB-2009/FB-2010 sample traces.
	SWIM Format = iota
	// GoogleTaskEvents is the Google cluster-data v2 task_events table:
	// comma-separated records, one task event per line, thirteen fields
	// (timestamp_us, missing_info, job_id, task_index, machine_id,
	// event_type, user, scheduling_class, priority, cpu_request,
	// memory_request, disk_request, different_machine_constraint). SUBMIT
	// events (type 0) define a job's tasks; other event types are skipped.
	GoogleTaskEvents
)

// String returns the format name ParseFormat accepts.
func (f Format) String() string {
	switch f {
	case SWIM:
		return "swim"
	case GoogleTaskEvents:
		return "google"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat resolves a format name ("swim", "google").
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "swim", "fb", "facebook":
		return SWIM, nil
	case "google", "google-task-events":
		return GoogleTaskEvents, nil
	default:
		return 0, fmt.Errorf("traceio: unknown trace format %q (want swim | google)", s)
	}
}

// Position locates a record (or a field of one) in its source file. Lines
// and columns are 1-based; Column 0 means the error concerns the whole
// record rather than one field.
type Position struct {
	File   string
	Line   int
	Column int
}

// String renders file:line or file:line:column.
func (p Position) String() string {
	if p.Column > 0 {
		return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Column)
	}
	return fmt.Sprintf("%s:%d", p.File, p.Line)
}

// DecodeError is a positioned validation failure: every malformed record a
// reader rejects is reported as one of these, so errors in a multi-GB log
// point at the exact file, line and field.
type DecodeError struct {
	Pos Position
	Msg string
	Err error // wrapped cause (e.g. a strconv error), may be nil
}

// Error renders "file:line:column: message".
func (e *DecodeError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("%s: %s: %v", e.Pos, e.Msg, e.Err)
	}
	return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
}

// Unwrap exposes the cause for errors.Is/As.
func (e *DecodeError) Unwrap() error { return e.Err }

// decodeErrf builds a positioned error. col 0 means whole-record.
func decodeErrf(file string, line, col int, cause error, format string, args ...any) *DecodeError {
	return &DecodeError{
		Pos: Position{File: file, Line: line, Column: col},
		Msg: fmt.Sprintf(format, args...),
		Err: cause,
	}
}

// minWorkFrac floors a task's work at this fraction of WorkScale, so
// empty-input jobs (common in the FB traces: metadata-only jobs) still carry
// simulatable tasks.
const minWorkFrac = 0.01

// closeGapUS is the Google task-events grouping window in raw trace
// microseconds (5 min): a job whose last task-submit event is older than
// this is considered fully described and becomes emittable. Memory is
// bounded by the jobs open within one window.
const closeGapUS = 300e6

// Options are the explicit record→job mapping rules. The zero value is NOT
// usable — call DefaultOptions and override fields. Every rule is
// deterministic given (Options, file contents): two readers over the same
// file produce byte-identical jobs, which is what makes sharded imported
// replays (one reader per partition) exact.
type Options struct {
	// BytesPerTask maps input bytes to input-task count: a job gets
	// ceil(bytes/BytesPerTask) tasks (at least 1). The default is 128 MiB —
	// the classic HDFS split size the SWIM Facebook traces were collected
	// under. Google task events carry explicit per-task rows, so this only
	// applies to SWIM.
	BytesPerTask float64
	// WorkScale is the intrinsic work (simulation units) of one full task —
	// a task holding BytesPerTask input bytes (SWIM) or a task with a full
	// 1.0 CPU request (Google). The default 10 matches the synthetic Hadoop
	// regime, so imported and synthetic replays run on one time scale.
	WorkScale float64
	// TimeScale converts trace time units to simulation time units:
	// arrival = trace_time × TimeScale. Defaults: SWIM records carry
	// seconds, scale 1; Google timestamps are microseconds, scale 1e-6.
	// 0 means the format default.
	TimeScale float64
	// MaxTasks rejects records mapping to more than this many tasks — a
	// guard against corrupt byte counts decoding into gigabyte task arrays.
	// Default 100_000.
	MaxTasks int
	// Bound, DeadlineFactorRange, ErrorRange and Slots assign approximation
	// bounds exactly as synthetic generation does (trace.AssignBound):
	// public traces carry no deadline/error bounds, so they are drawn — per
	// job, from a SubSeed(Seed, jobID) stream, making the assignment a pure
	// function of (Options, job) regardless of sharding. Defaults: mixed
	// bounds, §6.1 ranges, 400 slots.
	Bound               trace.BoundMode
	DeadlineFactorRange [2]float64
	ErrorRange          [2]float64
	Slots               int
	// Seed drives bound assignment.
	Seed int64
}

// DefaultOptions returns the documented default mapping rules.
func DefaultOptions() Options {
	return Options{
		BytesPerTask:        128 << 20,
		WorkScale:           10,
		TimeScale:           0, // format default
		MaxTasks:            100_000,
		Bound:               trace.MixedBound,
		DeadlineFactorRange: [2]float64{0.02, 0.20},
		ErrorRange:          [2]float64{0.05, 0.30},
		Slots:               400,
		Seed:                1,
	}
}

// Validate checks the mapping rules.
func (o Options) Validate() error {
	if o.BytesPerTask <= 0 {
		return fmt.Errorf("traceio: BytesPerTask %v must be positive", o.BytesPerTask)
	}
	if o.WorkScale <= 0 {
		return fmt.Errorf("traceio: WorkScale %v must be positive", o.WorkScale)
	}
	if o.TimeScale < 0 {
		return fmt.Errorf("traceio: TimeScale %v must be >= 0 (0 = format default)", o.TimeScale)
	}
	if o.MaxTasks < 1 {
		return fmt.Errorf("traceio: MaxTasks %d must be >= 1", o.MaxTasks)
	}
	if o.Bound < trace.DeadlineBound || o.Bound > trace.MixedBound {
		return fmt.Errorf("traceio: unknown bound mode %d", int(o.Bound))
	}
	if o.DeadlineFactorRange[0] < 0 || o.DeadlineFactorRange[1] < o.DeadlineFactorRange[0] {
		return fmt.Errorf("traceio: bad deadline factor range %v", o.DeadlineFactorRange)
	}
	if o.ErrorRange[0] < 0 || o.ErrorRange[1] >= 1 || o.ErrorRange[1] < o.ErrorRange[0] {
		return fmt.Errorf("traceio: bad error range %v", o.ErrorRange)
	}
	if o.Slots <= 0 {
		return fmt.Errorf("traceio: Slots %d must be positive", o.Slots)
	}
	return nil
}

// timeScale resolves the effective time scale for a format.
func (o Options) timeScale(f Format) float64 {
	if o.TimeScale > 0 {
		return o.TimeScale
	}
	if f == GoogleTaskEvents {
		return 1e-6
	}
	return 1
}

// boundConfig builds the trace.Config slice AssignBound consults.
func (o Options) boundConfig() trace.Config {
	return trace.Config{
		Bound:               o.Bound,
		DeadlineFactorRange: o.DeadlineFactorRange,
		ErrorRange:          o.ErrorRange,
		Slots:               o.Slots,
	}
}
