package traceio

import (
	"bytes"
	"math"
	"strconv"

	"github.com/approx-analytics/grass/internal/dist"
	"github.com/approx-analytics/grass/internal/task"
	"github.com/approx-analytics/grass/internal/trace"
)

// SWIMRecord is one typed record of a SWIM workload file: one job per line,
// six tab-separated fields. Pos locates the record for error reporting.
type SWIMRecord struct {
	Pos Position
	// JobID is field 1, the opaque job identifier. It aliases the line it
	// was decoded from, so it is valid only as long as the line is.
	JobID       []byte
	SubmitTime  float64 // field 2: submission time, seconds from trace start
	InterArrive float64 // field 3: gap to the next submission, seconds
	MapInput    float64 // field 4: map input bytes
	Shuffle     float64 // field 5: shuffle bytes
	Output      float64 // field 6: reduce output bytes
}

// swimFields is the SWIM record arity.
const swimFields = 6

// parseSWIMRecord decodes one line into rec without allocating. Every
// failure is a positioned DecodeError naming the field.
func parseSWIMRecord(rec *SWIMRecord, file string, line int, text []byte) error {
	*rec = SWIMRecord{Pos: Position{File: file, Line: line}}
	var fields [swimFields][]byte
	if n := splitFields(text, '\t', fields[:]); n != swimFields {
		return decodeErrf(file, line, 0, nil,
			"SWIM record has %d fields, want %d (job_id, submit_s, gap_s, map_bytes, shuffle_bytes, output_bytes)", n, swimFields)
	}
	rec.JobID = bytes.TrimSpace(fields[0])
	if len(rec.JobID) == 0 {
		return decodeErrf(file, line, fieldCol(fields[:], 0), nil, "empty job id")
	}
	num := func(i int, name string, min float64) (float64, error) {
		v, err := parseDecimal(bytes.TrimSpace(fields[i]))
		if err != nil {
			return 0, decodeErrf(file, line, fieldCol(fields[:], i), err, "bad %s %q", name, fields[i])
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < min {
			return 0, decodeErrf(file, line, fieldCol(fields[:], i), nil, "%s %v out of range (want finite, >= %v)", name, v, min)
		}
		return v, nil
	}
	var err error
	if rec.SubmitTime, err = num(1, "submit time", 0); err != nil {
		return err
	}
	if rec.InterArrive, err = num(2, "inter-arrival gap", 0); err != nil {
		return err
	}
	if rec.MapInput, err = num(3, "map input bytes", 0); err != nil {
		return err
	}
	if rec.Shuffle, err = num(4, "shuffle bytes", 0); err != nil {
		return err
	}
	if rec.Output, err = num(5, "reduce output bytes", 0); err != nil {
		return err
	}
	return nil
}

// exactPow10 holds the powers of ten a float64 represents exactly: 1e22 is
// the last, since 5^23 needs more than the 53 bits of a mantissa.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// Limits of parseDecimal's fast path: a mantissa of at most 15 significant
// digits is below 2^52, so float64 holds it exactly, and at most 22
// fraction digits divide it by an exactly represented power of ten.
const (
	maxExactDigits = 15
	maxExactFrac   = len(exactPow10) - 1
)

// parseDecimal returns strconv.ParseFloat(string(b), 64), bit for bit and
// error for error. A plain decimal (digits with at most one dot, at least
// one digit, at most 15 of them significant and at most 22 after the dot)
// is computed as float64(mantissa) / 10^fraction digits without
// allocating: two exactly represented operands and one correctly rounded
// division, the operation strconv's own exact path performs for such a
// string. Anything else (a sign, an exponent, hex, underscores, inf, nan,
// a longer mantissa, malformed text) goes to strconv.
func parseDecimal(b []byte) (float64, error) {
	var mant uint64
	digits, sig := 0, 0 // digits seen; those from the first non-zero on
	frac := -1          // digits after the dot; -1 before it
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			digits++
			if mant != 0 || c != '0' {
				sig++
			}
			mant = mant*10 + uint64(c-'0')
			if frac >= 0 {
				frac++
			}
		case c == '.' && frac < 0:
			frac = 0
		default:
			return strconv.ParseFloat(string(b), 64)
		}
	}
	if digits == 0 || sig > maxExactDigits || frac > maxExactFrac {
		return strconv.ParseFloat(string(b), 64)
	}
	if frac <= 0 {
		return float64(mant), nil
	}
	return float64(mant) / exactPow10[frac], nil
}

// splitFields splits text on sep into fields and returns how many fields
// text has; those past len(fields) are only counted. Every record format
// has a fixed arity, so a caller sizes fields to it and rejects any other
// count.
func splitFields[T string | []byte](text T, sep byte, fields []T) int {
	n, start := 0, 0
	for i := 0; i < len(text); i++ {
		if text[i] != sep {
			continue
		}
		if n < len(fields) {
			fields[n] = text[start:i]
		}
		n++
		start = i + 1
	}
	if n < len(fields) {
		fields[n] = text[start:]
	}
	return n + 1
}

// fieldCol returns the 1-based column at which field i of a line split by
// splitFields starts, so validation errors can point inside the line.
func fieldCol[T string | []byte](fields []T, i int) int {
	col := 1
	for _, f := range fields[:i] {
		col += len(f) + 1
	}
	return col
}

// swimMapper is one decoder's record→job mapping: the Options with the
// values derived from them, computed once rather than per record, and the
// reduce-phase backing the decoder's jobs share.
type swimMapper struct {
	o      Options
	bound  trace.Config
	tscale float64
	// spare is a reduce-phase backing a refilled job gave up for a
	// phase-less record; the next reduce job without one takes it, so a
	// recycled job alternating between the two allocates its phase once.
	spare []task.Phase
}

func newSWIMMapper(o Options) swimMapper {
	return swimMapper{o: o, bound: o.boundConfig(), tscale: o.timeScale(SWIM)}
}

// step is the per-record step Source.Next and Scan share: it parses one
// record line, checks its submit time against *prev and advances *prev,
// and maps the record into j as dense job id. A nil j keeps only what can
// fail (the parse, the order check and the task-count guard) for a record
// another shard owns.
func (m *swimMapper) step(file string, line int, text []byte, id int, prev *float64, j *task.Job) error {
	var rec SWIMRecord
	if err := parseSWIMRecord(&rec, file, line, text); err != nil {
		return err
	}
	if rec.SubmitTime < *prev {
		return decodeErrf(file, line, 0, nil,
			"submit time %v before previous record's %v (records must be sorted by submission time)", rec.SubmitTime, *prev)
	}
	*prev = rec.SubmitTime
	if j == nil {
		_, err := m.inputTasks(&rec)
		return err
	}
	return m.job(id, &rec, j)
}

// swimDecoder streams a SWIM file into jobs: one record is one job, already
// in submission order (validated non-decreasing).
type swimDecoder struct {
	sc   *lineScanner
	m    swimMapper
	prev float64 // previous record's submit time (monotonicity check)
	n    int     // jobs decoded so far = next dense job ID
	e    error
}

func newSWIMDecoder(sc *lineScanner, o Options) *swimDecoder {
	return &swimDecoder{sc: sc, m: newSWIMMapper(o), prev: math.Inf(-1)}
}

// next decodes the next job into j, overwriting every field (j may be a
// recycled pooled job); a nil j skips the job, checking it as step does.
// It returns false at end of file or on error.
func (d *swimDecoder) next(j *task.Job) bool {
	if d.e != nil {
		return false
	}
	if !d.sc.next() {
		d.e = d.sc.err
		return false
	}
	if d.e = d.m.step(d.sc.file, d.sc.line, d.sc.b, d.n, &d.prev, j); d.e != nil {
		return false
	}
	d.n++
	return true
}

func (d *swimDecoder) err() error { return d.e }

// inputTasks applies the split rule to the record's map input, rejecting a
// count over MaxTasks: the one way mapping a parsed record can fail.
func (m *swimMapper) inputTasks(rec *SWIMRecord) (int, error) {
	o := &m.o
	n, ok := tasksFor(rec.MapInput, o.BytesPerTask, o.MaxTasks)
	if !ok {
		return 0, decodeErrf(rec.Pos.File, rec.Pos.Line, 0, nil,
			"job %q maps to %.0f tasks (map input %.0f bytes / %.0f per task), over the %d-task limit",
			rec.JobID, math.Ceil(rec.MapInput/o.BytesPerTask), rec.MapInput, o.BytesPerTask, o.MaxTasks)
	}
	return n, nil
}

// job applies the SWIM mapping rules to one record, filling j in place:
//
//   - input tasks: ceil(MapInput / BytesPerTask), at least 1 — the HDFS
//     split rule the trace was collected under. Full splits carry WorkScale
//     intrinsic work; the final partial split carries its byte fraction,
//     floored at minWorkFrac (zero-input jobs become one minimal task).
//   - reduce phase: Shuffle > 0 adds one downstream phase with
//     ceil(Shuffle / BytesPerTask) tasks, capped at the input task count
//     (reduce fan-in never exceeds map fan-out in these workloads).
//   - arrival: SubmitTime × TimeScale.
//   - bound: drawn by trace.AssignBound from a SubSeed(Seed, jobID) stream —
//     a pure function of (Options, record), independent of sharding.
func (m *swimMapper) job(id int, rec *SWIMRecord, j *task.Job) error {
	n, err := m.inputTasks(rec)
	if err != nil {
		return err
	}
	o := &m.o
	j.ID = id
	j.Arrival = rec.SubmitTime * m.tscale
	if cap(j.InputWork) >= n {
		j.InputWork = j.InputWork[:n]
	} else {
		j.InputWork = make([]float64, n)
	}
	floor := o.WorkScale * minWorkFrac
	rem := rec.MapInput
	for i := range j.InputWork {
		frac := rem / o.BytesPerTask
		if frac > 1 {
			frac = 1
		}
		w := o.WorkScale * frac
		if w < floor {
			w = floor
		}
		j.InputWork[i] = w
		rem -= o.BytesPerTask
	}
	if rec.Shuffle > 0 {
		// Reduce fan-in is capped at the input task count, so the cap also
		// bounds corrupt shuffle byte counts.
		nr, ok := tasksFor(rec.Shuffle, o.BytesPerTask, o.MaxTasks)
		if !ok || nr > n {
			nr = n
		}
		if cap(j.Phases) == 0 {
			j.Phases, m.spare = m.spare, nil
		}
		j.Phases = append(j.Phases[:0], task.Phase{NumTasks: nr, WorkScale: o.WorkScale})
	} else {
		// A phase-less job keeps Phases nil (its JSON form prints null);
		// the backing waits in spare for the next reduce job.
		if cap(j.Phases) > 0 && m.spare == nil {
			m.spare = j.Phases[:0]
		}
		j.Phases = nil
	}
	j.Bound = task.Bound{}
	j.DeadlineFactor = 0
	j.IdealDuration = 0
	trace.AssignBound(&m.bound, j, dist.NewRNG(dist.SubSeed(o.Seed, id)))
	return nil
}

// tasksFor is the split rule: ceil(bytes/perTask), at least one task. The
// comparison against max happens in float space BEFORE the int conversion,
// so a corrupt byte count beyond int range reports cleanly instead of
// overflowing.
func tasksFor(bytes, perTask float64, max int) (int, bool) {
	f := math.Ceil(bytes / perTask)
	if f > float64(max) {
		return 0, false
	}
	n := int(f)
	if n < 1 {
		n = 1
	}
	return n, true
}
