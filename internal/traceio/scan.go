package traceio

import (
	"fmt"
	"io/fs"
	"math"
	"runtime"
	"sync"

	"github.com/approx-analytics/grass/internal/task"
)

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
//
// A SWIM file is decoded on every core. One goroutine reads it through the
// same line reader a Source uses, so line numbers, CR handling, comments
// and the over-long-line error are the stream's, and packs the record
// lines into blocks of up to blockRecords records, each with its lines'
// numbers, its first dense job ID and the record line before it.
// GOMAXPROCS workers decode, map and validate each block with the step a
// Source runs per record, seeding its order check with that line. The
// caller folds the block summaries in file order: counts add, Span is a
// max, and TotalWork adds each job's work in file order, so the result is
// the stream's bit for bit at any GOMAXPROCS. The error returned is the
// first in file order, the stream's, and it stops the reader; no
// goroutine outlives Scan. At most 2 × workers blocks exist, so memory is
// bounded by the worker count, not the file. A Google file is scanned on
// one core: its jobs span lines and its grouping is stateful, so a record's
// job depends on every record before it.
func Scan(fsys fs.FS, path string, format Format, o Options) (*ScanStats, error) {
	if format != SWIM {
		return scanSource(fsys, path, format, o)
	}
	rc, err := openTrace(fsys, path, o)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return scanBlocks(newLineScanner(rc, path), newSWIMMapper(o), runtime.GOMAXPROCS(0))
}

// scanSource is Scan as one fold over a Source: each job is validated and
// counted in arrival order.
func scanSource(fsys fs.FS, path string, format Format, o Options) (*ScanStats, error) {
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
		if err := validateMapped(path, j); err != nil {
			return nil, err
		}
		st.count(j)
		st.TotalWork += j.TotalWork()
		src.Release(j)
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	st.finish()
	return st, nil
}

// validateMapped is Scan's check of each mapped job.
func validateMapped(path string, j *task.Job) error {
	if err := j.Validate(); err != nil {
		return fmt.Errorf("traceio: %s: job %d invalid after mapping: %w", path, j.ID, err)
	}
	return nil
}

// count folds one mapped job into the stats, all but its work.
func (st *ScanStats) count(j *task.Job) {
	st.Jobs++
	st.Tasks += j.NumTasks()
	if len(j.Phases) > 0 {
		st.Phases++
	}
	st.Bins[int(j.Bin())]++
	if j.Arrival > st.Span {
		st.Span = j.Arrival
	}
}

// finish derives the mean task count.
func (st *ScanStats) finish() {
	if st.Jobs > 0 {
		st.MeanTasks = float64(st.Tasks) / float64(st.Jobs)
	}
}

// Block limits: a block closes at blockRecords records or once its lines
// hold blockBytes bytes, so over-long lines cannot make one block large.
// Its line buffer starts at blockBuf bytes, room for blockRecords records
// of 64 bytes (SWIM records run 40 to 60).
const (
	blockRecords = 1024
	blockBytes   = 256 << 10
	blockBuf     = 64 * blockRecords
)

// swimBlock is a run of consecutive SWIM record lines and, once a worker
// has decoded it, their summary. Blocks are reused.
type swimBlock struct {
	buf   []byte // the records' line bytes, back to back
	ends  []int  // record i is buf[ends[i-1]:ends[i]] (from 0 for i = 0)
	lines []int  // record i's line number
	prev  []byte // the record line before the block's first, if first > 0
	first int    // dense job ID of the block's first record
	done  chan struct{}
	// The worker's summary: the stats of the records before err, their
	// work kept per job for the fold to add in file order.
	st   ScanStats
	work []float64
	err  error
}

// scanBlocks is Scan's SWIM fold: sc's record lines, decoded in blocks by
// workers goroutines, folded in file order.
func scanBlocks(sc *lineScanner, proto swimMapper, workers int) (*ScanStats, error) {
	// Every channel holds up to all 2 × workers blocks, and a block is in
	// at most one of each at a time, so no send ever blocks.
	free := make(chan *swimBlock, 2*workers)
	for range 2 * workers {
		free <- &swimBlock{
			buf:   make([]byte, 0, blockBuf),
			ends:  make([]int, 0, blockRecords),
			lines: make([]int, 0, blockRecords),
			work:  make([]float64, 0, blockRecords),
			done:  make(chan struct{}, 1),
		}
	}
	todo := make(chan *swimBlock, 2*workers)
	ordered := make(chan *swimBlock, 2*workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readErr error
	wg.Add(1 + workers)
	go func() {
		defer wg.Done()
		readErr = readBlocks(sc, free, todo, ordered, stop)
	}()
	for range workers {
		go func() {
			defer wg.Done()
			m := proto
			var j task.Job
			for b := range todo {
				m.decodeBlock(sc.file, b, &j)
				b.done <- struct{}{}
			}
		}()
	}
	st := &ScanStats{Format: SWIM}
	var err error
	for b := range ordered {
		<-b.done
		if b.err != nil {
			err = b.err
			break
		}
		st.merge(&b.st, b.work)
		free <- b
	}
	close(stop)
	wg.Wait()
	if err == nil {
		err = readErr
	}
	if err != nil {
		return nil, err
	}
	st.finish()
	return st, nil
}

// readBlocks packs sc's record lines into blocks taken from free and sends
// each full block to the workers (todo) and, in file order, to the fold
// (ordered). It stops at the end of input, on a read error, which it
// returns, or once stop is closed.
func readBlocks(sc *lineScanner, free <-chan *swimBlock, todo, ordered chan<- *swimBlock, stop <-chan struct{}) error {
	defer close(ordered)
	defer close(todo)
	var (
		b    *swimBlock
		last []byte // the last record line of the block sent before b
		id   int
	)
	send := func() {
		last = append(last[:0], b.buf[b.start(len(b.ends)-1):]...)
		todo <- b
		ordered <- b
		b = nil
	}
	for sc.next() {
		if b == nil {
			select {
			case b = <-free:
			case <-stop:
				return nil
			}
			b.buf, b.ends, b.lines, b.first = b.buf[:0], b.ends[:0], b.lines[:0], id
			b.prev = append(b.prev[:0], last...)
		}
		b.buf = append(b.buf, sc.b...)
		b.ends = append(b.ends, len(b.buf))
		b.lines = append(b.lines, sc.line)
		id++
		if len(b.ends) == blockRecords || len(b.buf) >= blockBytes {
			send()
		}
	}
	if b != nil {
		send()
	}
	return sc.err
}

// start returns where record i of the block begins in buf.
func (b *swimBlock) start(i int) int {
	if i == 0 {
		return 0
	}
	return b.ends[i-1]
}

// decodeBlock decodes, maps and validates the block's records into j one
// by one, summarizing them into the block, and stops at the first error.
func (m *swimMapper) decodeBlock(file string, b *swimBlock, j *task.Job) {
	b.st, b.work, b.err = ScanStats{}, b.work[:0], nil
	prev := math.Inf(-1)
	if b.first > 0 {
		// A line that does not parse fails in the block before, which
		// the fold reaches first.
		var rec SWIMRecord
		if parseSWIMRecord(&rec, file, 0, b.prev) == nil {
			prev = rec.SubmitTime
		}
	}
	for i, end := range b.ends {
		line := b.buf[b.start(i):end]
		if b.err = m.step(file, b.lines[i], line, b.first+i, &prev, j); b.err != nil {
			return
		}
		if b.err = validateMapped(file, j); b.err != nil {
			return
		}
		b.st.count(j)
		b.work = append(b.work, j.TotalWork())
	}
}

// merge folds a block's summary into st: counts add, Span is a max, and
// the block's per-job work adds to TotalWork one job at a time, in the
// order the stream adds it.
func (st *ScanStats) merge(b *ScanStats, work []float64) {
	st.Jobs += b.Jobs
	st.Tasks += b.Tasks
	st.Phases += b.Phases
	for i := range st.Bins {
		st.Bins[i] += b.Bins[i]
	}
	if b.Span > st.Span {
		st.Span = b.Span
	}
	for _, w := range work {
		st.TotalWork += w
	}
}
