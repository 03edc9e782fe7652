package traceio

import (
	"bytes"
	"container/heap"
	"math"
	"slices"
	"strconv"

	"github.com/approx-analytics/grass/internal/dist"
	"github.com/approx-analytics/grass/internal/task"
	"github.com/approx-analytics/grass/internal/trace"
)

// GoogleTaskEvent is one typed record of the Google cluster-data v2
// task_events table (13 comma-separated columns). Only the fields this
// importer consumes are decoded into typed form; the rest are validated for
// arity but carried as raw text is never needed.
type GoogleTaskEvent struct {
	Pos       Position
	Timestamp float64 // column 1: event time, microseconds from trace start
	// JobID is column 3, the job identifier. It aliases the line it was
	// decoded from, so it is valid only as long as the line is.
	JobID     []byte
	TaskIndex int64   // column 4: task index within the job
	EventType int     // column 6: 0=SUBMIT .. 8=UPDATE_RUNNING
	CPU       float64 // column 10: normalized CPU request in [0, 1]; -1 if absent
}

// googleFields is the task_events arity.
const googleFields = 13

// Google task_events event types (v2 schema §task events).
const (
	googleSubmit = 0
	googleMaxEvt = 8
)

// parseGoogleEvent decodes one task_events line into ev without
// allocating. Every failure is a positioned DecodeError naming the column.
func parseGoogleEvent(ev *GoogleTaskEvent, file string, line int, text []byte) error {
	*ev = GoogleTaskEvent{Pos: Position{File: file, Line: line}}
	var fields [googleFields][]byte
	if n := splitFields(text, ',', fields[:]); n != googleFields {
		return decodeErrf(file, line, 0, nil,
			"task_events record has %d fields, want %d (Google cluster-data v2 schema)", n, googleFields)
	}
	col := func(i int) int { return fieldCol(fields[:], i) }
	ts, err := parseDecimal(bytes.TrimSpace(fields[0]))
	if err != nil {
		return decodeErrf(file, line, col(0), err, "bad timestamp %q", fields[0])
	}
	if math.IsNaN(ts) || math.IsInf(ts, 0) || ts < 0 {
		return decodeErrf(file, line, col(0), nil, "timestamp %v out of range (want finite, >= 0)", ts)
	}
	ev.Timestamp = ts
	ev.JobID = bytes.TrimSpace(fields[2])
	if len(ev.JobID) == 0 {
		return decodeErrf(file, line, col(2), nil, "empty job id")
	}
	idx, err := parseInt(bytes.TrimSpace(fields[3]))
	if err != nil {
		return decodeErrf(file, line, col(3), err, "bad task index %q", fields[3])
	}
	if idx < 0 {
		return decodeErrf(file, line, col(3), nil, "negative task index %d", idx)
	}
	ev.TaskIndex = idx
	et, err := parseInt(bytes.TrimSpace(fields[5]))
	if err != nil {
		// Report strconv.Atoi's error, as this column always has.
		_, err = strconv.Atoi(string(bytes.TrimSpace(fields[5])))
		return decodeErrf(file, line, col(5), err, "bad event type %q", fields[5])
	}
	if et < 0 || et > googleMaxEvt {
		return decodeErrf(file, line, col(5), nil, "event type %d out of [0, %d]", et, googleMaxEvt)
	}
	ev.EventType = int(et)
	ev.CPU = -1
	if c := bytes.TrimSpace(fields[9]); len(c) > 0 {
		cpu, err := parseDecimal(c)
		if err != nil {
			return decodeErrf(file, line, col(9), err, "bad CPU request %q", fields[9])
		}
		if math.IsNaN(cpu) || cpu < 0 || cpu > 1 {
			return decodeErrf(file, line, col(9), nil, "CPU request %v out of [0, 1] (v2 requests are normalized)", cpu)
		}
		ev.CPU = cpu
	}
	return nil
}

// maxExactInt is how many digits parseInt's fast path takes: 18 decimal
// digits stay below 2^63.
const maxExactInt = 18

// parseInt returns strconv.ParseInt(string(b), 10, 64), value for value
// and error for error. Up to 18 plain digits are summed without
// allocating; a sign, an underscore, a longer number or anything malformed
// goes to strconv.
func parseInt(b []byte) (int64, error) {
	if len(b) == 0 || len(b) > maxExactInt {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return strconv.ParseInt(string(b), 10, 64)
		}
		v = v*10 + int64(c-'0')
	}
	return v, nil
}

// googleDecoder groups a task_events stream into jobs with bounded memory.
//
// The table is sorted by timestamp (validated), but one job's SUBMIT events
// interleave with other jobs'. The grouper keeps jobs "open" while their
// submits may still arrive and closes a job once the stream has moved
// closeGapUS microseconds past its last event — so memory holds only the
// jobs open within one window, never the trace.
//
// Emission preserves the simulator's arrival-order contract: a closed job
// is held until no open job has an earlier first-submit time. Future
// records cannot introduce an earlier job (timestamps are non-decreasing),
// so the emitted sequence is sorted by (arrival, first-seen order) — a
// deterministic pure function of the file and Options.
type googleDecoder struct {
	sc     *lineScanner
	o      Options
	bound  trace.Config
	tscale float64
	prevTS float64
	// skip receives the jobs next(nil) passes over: grouping is stateful,
	// so another shard's job is filled in full.
	skip task.Job

	open  map[string]*googleJob // jobs that may still gain tasks
	ready googleHeap            // closed jobs awaiting safe emission
	// cur is the open job the previous submit went to: consecutive submits
	// of one job, the common case, find it without a map lookup.
	cur  *googleJob
	ev   GoogleTaskEvent
	idxs []int64 // fill's scratch: a job's task indices, sorted
	seq  int     // first-seen counter (deterministic tie-break)
	n    int     // jobs emitted so far = next dense job ID
	eof  bool
	e    error
}

// googleJob accumulates one job's submitted tasks.
type googleJob struct {
	id        string
	firstTS   float64 // first submit: the job's arrival (raw trace time)
	lastTS    float64
	seq       int
	firstLine int
	tasks     map[int64]float64 // task index -> CPU request (first submit wins)
}

func newGoogleDecoder(sc *lineScanner, o Options) *googleDecoder {
	return &googleDecoder{
		sc:     sc,
		o:      o,
		bound:  o.boundConfig(),
		tscale: o.timeScale(GoogleTaskEvents),
		prevTS: math.Inf(-1),
		open:   make(map[string]*googleJob),
	}
}

// next decodes the next job into j; a nil j decodes it into a scratch job
// and drops it. It consumes records until one becomes safely emittable (or
// the file ends), returning false at end of stream or on error.
func (d *googleDecoder) next(j *task.Job) bool {
	if j == nil {
		j = &d.skip
	}
	for d.e == nil {
		if g := d.pop(); g != nil {
			if err := d.fill(g, j); err != nil {
				d.e = err
				return false
			}
			return true
		}
		if d.eof {
			return false
		}
		if !d.advance() {
			continue // EOF or error recorded; loop re-checks ready/eof
		}
	}
	return false
}

func (d *googleDecoder) err() error { return d.e }

// advance consumes one record, updating the open set and closing jobs that
// fell out of the window. Returns false at EOF or on a decode error.
func (d *googleDecoder) advance() bool {
	if !d.sc.next() {
		d.e = d.sc.err
		d.eof = true
		// End of file: every open job is fully described now.
		for _, g := range d.open {
			heap.Push(&d.ready, g)
		}
		d.open = map[string]*googleJob{}
		d.cur = nil
		return false
	}
	ev := &d.ev
	if err := parseGoogleEvent(ev, d.sc.file, d.sc.line, d.sc.b); err != nil {
		d.e = err
		d.eof = true
		return false
	}
	if ev.Timestamp < d.prevTS {
		d.e = decodeErrf(d.sc.file, d.sc.line, 0, nil,
			"timestamp %.0f before previous record's %.0f (task_events must be sorted by timestamp)", ev.Timestamp, d.prevTS)
		d.eof = true
		return false
	}
	d.prevTS = ev.Timestamp
	if ev.EventType == googleSubmit {
		g := d.cur
		if g == nil || g.id != string(ev.JobID) {
			g = d.open[string(ev.JobID)]
		}
		if g == nil {
			id := string(ev.JobID)
			g = &googleJob{
				id:        id,
				firstTS:   ev.Timestamp,
				seq:       d.seq,
				firstLine: ev.Pos.Line,
				tasks:     make(map[int64]float64),
			}
			d.seq++
			d.open[id] = g
		}
		d.cur = g
		g.lastTS = ev.Timestamp
		if _, dup := g.tasks[ev.TaskIndex]; !dup {
			// Resubmissions of a task index (retries after failure or
			// eviction) describe the same task; the first submit wins.
			g.tasks[ev.TaskIndex] = ev.CPU
		}
		if len(g.tasks) > d.o.MaxTasks {
			d.e = decodeErrf(d.sc.file, d.sc.line, 0, nil,
				"job %q has over %d submitted tasks (first seen at line %d)", g.id, d.o.MaxTasks, g.firstLine)
			d.eof = true
			return false
		}
	}
	// Close jobs the stream has moved a full window past.
	for id, g := range d.open {
		if ev.Timestamp-g.lastTS > closeGapUS {
			heap.Push(&d.ready, g)
			delete(d.open, id)
			if g == d.cur {
				d.cur = nil
			}
		}
	}
	return true
}

// pop returns the next safely emittable closed job: the ready minimum, as
// long as no still-open job has an earlier (firstTS, seq). Open jobs will
// close later but their arrivals are already fixed, so emitting past one
// would violate arrival order.
func (d *googleDecoder) pop() *googleJob {
	if d.ready.Len() == 0 {
		return nil
	}
	g := d.ready.jobs[0]
	for _, o := range d.open {
		if o.firstTS < g.firstTS || (o.firstTS == g.firstTS && o.seq < g.seq) {
			return nil
		}
	}
	return heap.Pop(&d.ready).(*googleJob)
}

// fill maps one grouped job into the simulator model, filling j in place:
//
//   - tasks: one per distinct submitted task index, ordered by index;
//   - per-task work: WorkScale × CPU request, floored at minWorkFrac
//     (absent requests get the floor) — request-weighted task cost;
//   - arrival: first submit timestamp × TimeScale;
//   - bound: trace.AssignBound from a SubSeed(Seed, jobID) stream.
func (d *googleDecoder) fill(g *googleJob, j *task.Job) error {
	o := d.o
	n := len(g.tasks)
	j.ID = d.n
	j.Arrival = g.firstTS * d.tscale
	if cap(j.InputWork) >= n {
		j.InputWork = j.InputWork[:n]
	} else {
		j.InputWork = make([]float64, n)
	}
	idxs := d.idxs[:0]
	for idx := range g.tasks {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	d.idxs = idxs
	floor := o.WorkScale * minWorkFrac
	for i, idx := range idxs {
		w := o.WorkScale * g.tasks[idx]
		if w < floor {
			w = floor
		}
		j.InputWork[i] = w
	}
	j.Phases = nil
	j.Bound = task.Bound{}
	j.DeadlineFactor = 0
	j.IdealDuration = 0
	trace.AssignBound(&d.bound, j, dist.NewRNG(dist.SubSeed(o.Seed, d.n)))
	d.n++
	return nil
}

// googleHeap is a min-heap of closed jobs by (firstTS, seq).
type googleHeap struct{ jobs []*googleJob }

func (h *googleHeap) Len() int { return len(h.jobs) }
func (h *googleHeap) Less(a, b int) bool {
	ja, jb := h.jobs[a], h.jobs[b]
	if ja.firstTS != jb.firstTS {
		return ja.firstTS < jb.firstTS
	}
	return ja.seq < jb.seq
}
func (h *googleHeap) Swap(a, b int) { h.jobs[a], h.jobs[b] = h.jobs[b], h.jobs[a] }
func (h *googleHeap) Push(x any)    { h.jobs = append(h.jobs, x.(*googleJob)) }
func (h *googleHeap) Pop() any {
	n := len(h.jobs) - 1
	g := h.jobs[n]
	h.jobs[n] = nil
	h.jobs = h.jobs[:n]
	return g
}
