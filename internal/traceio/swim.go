package traceio

import (
	"math"
	"strconv"
	"strings"

	"github.com/approx-analytics/grass/internal/dist"
	"github.com/approx-analytics/grass/internal/task"
	"github.com/approx-analytics/grass/internal/trace"
)

// SWIMRecord is one typed record of a SWIM workload file: one job per line,
// six tab-separated fields. Pos locates the record for error reporting.
type SWIMRecord struct {
	Pos         Position
	JobID       string  // field 1: opaque job identifier
	SubmitTime  float64 // field 2: submission time, seconds from trace start
	InterArrive float64 // field 3: gap to the next submission, seconds
	MapInput    float64 // field 4: map input bytes
	Shuffle     float64 // field 5: shuffle bytes
	Output      float64 // field 6: reduce output bytes
}

// swimFields is the SWIM record arity.
const swimFields = 6

// parseSWIMRecord decodes one line into a typed record. Every failure is a
// positioned DecodeError naming the field.
func parseSWIMRecord(file string, line int, text string) (SWIMRecord, error) {
	rec := SWIMRecord{Pos: Position{File: file, Line: line}}
	var fields [swimFields]string
	if n := splitFields(text, '\t', fields[:]); n != swimFields {
		return rec, decodeErrf(file, line, 0, nil,
			"SWIM record has %d fields, want %d (job_id, submit_s, gap_s, map_bytes, shuffle_bytes, output_bytes)", n, swimFields)
	}
	rec.JobID = strings.TrimSpace(fields[0])
	if rec.JobID == "" {
		return rec, decodeErrf(file, line, fieldCol(fields[:], 0), nil, "empty job id")
	}
	num := func(i int, name string, min float64) (float64, error) {
		v, err := strconv.ParseFloat(strings.TrimSpace(fields[i]), 64)
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
		return rec, err
	}
	if rec.InterArrive, err = num(2, "inter-arrival gap", 0); err != nil {
		return rec, err
	}
	if rec.MapInput, err = num(3, "map input bytes", 0); err != nil {
		return rec, err
	}
	if rec.Shuffle, err = num(4, "shuffle bytes", 0); err != nil {
		return rec, err
	}
	if rec.Output, err = num(5, "reduce output bytes", 0); err != nil {
		return rec, err
	}
	return rec, nil
}

// splitFields splits text on sep into fields and returns how many fields
// text has; those past len(fields) are only counted. Every record format
// has a fixed arity, so a caller sizes fields to it and rejects any other
// count.
func splitFields(text string, sep byte, fields []string) int {
	n := 0
	for {
		i := strings.IndexByte(text, sep)
		if n < len(fields) {
			if i < 0 {
				fields[n] = text
			} else {
				fields[n] = text[:i]
			}
		}
		n++
		if i < 0 {
			return n
		}
		text = text[i+1:]
	}
}

// fieldCol returns the 1-based column at which field i of a line split by
// splitFields starts, so validation errors can point inside the line.
func fieldCol(fields []string, i int) int {
	col := 1
	for _, f := range fields[:i] {
		col += len(f) + 1
	}
	return col
}

// swimDecoder streams a SWIM file into jobs: one record is one job, already
// in submission order (validated non-decreasing).
type swimDecoder struct {
	sc     *lineScanner
	o      Options
	tscale float64
	prev   float64 // previous record's submit time (monotonicity check)
	n      int     // jobs decoded so far = next dense job ID
	e      error
}

func newSWIMDecoder(sc *lineScanner, o Options) *swimDecoder {
	return &swimDecoder{sc: sc, o: o, tscale: o.timeScale(SWIM), prev: math.Inf(-1)}
}

// next decodes the next job into j, overwriting every field (j may be a
// recycled pooled job). It returns false at end of file or on error.
func (d *swimDecoder) next(j *task.Job) bool {
	if d.e != nil {
		return false
	}
	if !d.sc.next() {
		d.e = d.sc.err
		return false
	}
	rec, err := parseSWIMRecord(d.sc.file, d.sc.line, d.sc.text)
	if err != nil {
		d.e = err
		return false
	}
	if rec.SubmitTime < d.prev {
		d.e = decodeErrf(d.sc.file, d.sc.line, 0, nil,
			"submit time %v before previous record's %v (records must be sorted by submission time)", rec.SubmitTime, d.prev)
		return false
	}
	d.prev = rec.SubmitTime
	if err := swimJob(d.o, d.n, rec, j); err != nil {
		d.e = err
		return false
	}
	d.n++
	return true
}

func (d *swimDecoder) err() error { return d.e }

// swimJob applies the SWIM mapping rules to one record, filling j in place:
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
func swimJob(o Options, id int, rec SWIMRecord, j *task.Job) error {
	n, ok := tasksFor(rec.MapInput, o.BytesPerTask, o.MaxTasks)
	if !ok {
		return decodeErrf(rec.Pos.File, rec.Pos.Line, 0, nil,
			"job %q maps to %.0f tasks (map input %.0f bytes / %.0f per task), over the %d-task limit",
			rec.JobID, math.Ceil(rec.MapInput/o.BytesPerTask), rec.MapInput, o.BytesPerTask, o.MaxTasks)
	}
	j.ID = id
	j.Arrival = rec.SubmitTime * o.timeScale(SWIM)
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
		if cap(j.Phases) >= 1 {
			j.Phases = j.Phases[:1]
		} else {
			j.Phases = make([]task.Phase, 1)
		}
		j.Phases[0] = task.Phase{NumTasks: nr, WorkScale: o.WorkScale}
	} else {
		j.Phases = nil
	}
	j.Bound = task.Bound{}
	j.DeadlineFactor = 0
	j.IdealDuration = 0
	trace.AssignBound(o.boundConfig(), j, dist.NewRNG(dist.SubSeed(o.Seed, id)))
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
