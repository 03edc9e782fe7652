package traceio

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
	"time"

	"github.com/approx-analytics/grass/internal/dist"
)

// swimSampleHeader is the comment header of the vendored SWIM sample.
const swimSampleHeader = "# SWIM/Facebook-style sample workload (synthetic, deterministic; see gen.go)\n" +
	"# job_id\tsubmit_s\tgap_s\tmap_input_bytes\tshuffle_bytes\toutput_bytes\n"

// swimSampleLines returns n SWIM record lines (no newlines) in the
// vendored sample's shape: testdata/gen.go's generator, seed and
// rendering, so the first 2000 are the sample's records.
func swimSampleLines(n int) []string {
	rng := dist.NewRNG(42)
	lines := make([]string, 0, n)
	now := 0.0
	for i := 0; i < n; i++ {
		lgLo, lgHi := math.Log(1<<20), math.Log(32<<30)
		mapBytes := math.Exp(lgLo + rng.Float64()*(lgHi-lgLo))
		shuffle := 0.0
		if rng.Float64() < 0.6 {
			shuffle = mapBytes * (0.1 + 0.4*rng.Float64())
		}
		output := shuffle * (0.2 + 0.8*rng.Float64())
		tasks := math.Max(1, math.Ceil(mapBytes/float64(128<<20)))
		spacing := tasks * 10 * 1.75 / (400 * 0.6)
		gap := dist.Exponential{Mu: spacing}.Sample(rng)
		lines = append(lines, fmt.Sprintf("job%04d\t%.3f\t%.3f\t%.0f\t%.0f\t%.0f",
			i, now, gap, mapBytes, shuffle, output))
		now += gap
	}
	return lines
}

// swimSample renders n sample records as a file.
func swimSample(n int) []byte {
	return []byte(swimSampleHeader + strings.Join(swimSampleLines(n), "\n") + "\n")
}

// TestSWIMSampleGenerator: the benchmarks' and the scan tests' generator is
// gen.go's, so its first 2000 records are the vendored sample.
func TestSWIMSampleGenerator(t *testing.T) {
	want, err := os.ReadFile("testdata/samples/swim_fb_sample.tsv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(swimSample(2000), want) {
		t.Fatal("swimSample(2000) differs from testdata/samples/swim_fb_sample.tsv")
	}
}

// sameScan fails unless the two Scan results are identical: the same error
// text, or stats equal field for field with floats compared by bits.
func sameScan(t *testing.T, name string, got *ScanStats, gotErr error, want *ScanStats, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: Scan error %v, stream %v", name, gotErr, wantErr)
		}
		return
	}
	same := got.Format == want.Format && got.Jobs == want.Jobs && got.Tasks == want.Tasks &&
		got.Phases == want.Phases && got.Bins == want.Bins
	for _, f := range [][2]float64{{got.Span, want.Span}, {got.TotalWork, want.TotalWork}, {got.MeanTasks, want.MeanTasks}} {
		same = same && math.Float64bits(f[0]) == math.Float64bits(f[1])
	}
	if !same {
		t.Fatalf("%s: Scan %+v, stream %+v", name, *got, *want)
	}
}

// atProcs runs f at each GOMAXPROCS setting, restoring the setting after.
func atProcs(t *testing.T, f func(procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(p)
		f(p)
	}
}

// TestScanEqualsStream holds the block-parallel Scan to the one-record-at-
// a-time fold over a Source (scanSource, the path Google files take) on
// files of several blocks, with each defect at a block's first record, at
// its last, in the middle, and at the file's first and last records. The
// stats must match bit for bit, or the error text (position included).
func TestScanEqualsStream(t *testing.T) {
	const records = 3*blockRecords + 100
	base := swimSampleLines(records)
	o := DefaultOptions()
	// Validate-after-mapping defects need arrivals that overflow; the
	// sample's own submit times stay finite at this scale.
	huge := o
	huge.TimeScale = 1e300
	setField := func(line string, i int, v string) string {
		f := strings.Split(line, "\t")
		f[i] = v
		return strings.Join(f, "\t")
	}
	defects := []struct {
		name string
		o    Options
		edit func(lines []string, k int)
	}{
		{"bad field", o, func(l []string, k int) { l[k] = setField(l[k], 3, "potato") }},
		{"submit out of order", o, func(l []string, k int) { l[k] = setField(l[k], 1, "-0") }},
		{"over-long line", o, func(l []string, k int) { l[k] = strings.Repeat("x", maxLineBytes+10) }},
		{"max tasks", o, func(l []string, k int) { l[k] = setField(l[k], 3, "1e30") }},
		{"invalid after mapping", huge, func(l []string, k int) { l[k] = setField(l[k], 1, "1e10") }},
		// The order check comes after the record's parse and before its
		// mapping, also at a block's first record.
		{"out of order and bad field", o, func(l []string, k int) {
			l[k] = setField(setField(l[k], 1, "0.0001"), 5, "x")
		}},
		{"out of order and max tasks", o, func(l []string, k int) {
			l[k] = setField(setField(l[k], 1, "0.0001"), 3, "1e30")
		}},
	}
	positions := []int{0, blockRecords - 1, blockRecords, blockRecords + blockRecords/2, 2*blockRecords - 1, 2 * blockRecords, records - 1}
	render := func(lines []string) []byte {
		return []byte(swimSampleHeader + strings.Join(lines, "\n") + "\n")
	}
	type file struct {
		name string
		data []byte
		o    Options
		fail bool
	}
	var files []file
	for _, d := range defects {
		for _, k := range positions {
			lines := append([]string(nil), base...)
			d.edit(lines, k)
			// Only the file's first record has no predecessor to be out of
			// order with.
			fail := k > 0 || d.name != "submit out of order"
			files = append(files, file{fmt.Sprintf("%s at record %d", d.name, k), render(lines), d.o, fail})
		}
	}
	clean := render(base)
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	zw.Write(clean)
	zw.Close()
	straddle := append([]string(nil), base[:blockRecords]...)
	straddle = append(straddle, "# a comment between blocks", "", "   ", "\t# indented comment")
	straddle = append(straddle, base[blockRecords:2*blockRecords]...)
	straddle = append(straddle, "", "# another")
	straddle = append(straddle, base[2*blockRecords:]...)
	files = append(files,
		file{"clean", clean, o, false},
		file{"crlf", bytes.ReplaceAll(clean, []byte("\n"), []byte("\r\n")), o, false},
		file{"comments straddling blocks", render(straddle), o, false},
		file{"gzip.gz", zbuf.Bytes(), o, false},
		file{"empty", nil, o, false},
		file{"comment-only", []byte("# nothing\n\n# here\n"), o, false},
		file{"one record", []byte(base[0] + "\n"), o, false},
		file{"no trailing newline", bytes.TrimSuffix(clean, []byte("\n")), o, false},
	)
	for _, f := range files {
		name := f.name
		if !strings.HasSuffix(name, ".gz") {
			name += ".tsv"
		}
		fsys := fstest.MapFS{name: &fstest.MapFile{Data: f.data}}
		want, wantErr := scanSource(fsys, name, SWIM, f.o)
		if f.fail && wantErr == nil {
			t.Fatalf("%s: the stream decoded the defect without error", f.name)
		}
		if !f.fail && wantErr != nil {
			t.Fatalf("%s: %v", f.name, wantErr)
		}
		atProcs(t, func(procs int) {
			got, gotErr := Scan(fsys, name, SWIM, f.o)
			sameScan(t, fmt.Sprintf("%s, GOMAXPROCS %d", f.name, procs), got, gotErr, want, wantErr)
		})
	}
}

// TestScanNoGoroutineOutlives: Scan waits for its reader and workers, on
// success and after an early error, whatever GOMAXPROCS.
func TestScanNoGoroutineOutlives(t *testing.T) {
	lines := swimSampleLines(4 * blockRecords)
	bad := append([]string(nil), lines...)
	bad[blockRecords/2] = "broken"
	fsys := fstest.MapFS{
		"ok.tsv":  &fstest.MapFile{Data: []byte(strings.Join(lines, "\n"))},
		"bad.tsv": &fstest.MapFile{Data: []byte(strings.Join(bad, "\n"))},
	}
	atProcs(t, func(procs int) {
		for _, name := range []string{"ok.tsv", "bad.tsv"} {
			before := runtime.NumGoroutine()
			_, err := Scan(fsys, name, SWIM, DefaultOptions())
			if (err != nil) != (name == "bad.tsv") {
				t.Fatalf("%s: unexpected result %v", name, err)
			}
			// A goroutine that has signalled its exit may still be
			// returning, so wait (briefly) for the count to settle.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%s at GOMAXPROCS %d: %d goroutines after Scan, %d before", name, procs, runtime.NumGoroutine(), before)
				}
				runtime.Gosched()
				time.Sleep(time.Millisecond)
			}
		}
	})
}

// TestShardMaxTasksStopsEveryShard: a record only one shard owns that fails
// the task-count guard ends every shard's stream, with the same error the
// full stream reports, after exactly the jobs each shard owns before it.
func TestShardMaxTasksStopsEveryShard(t *testing.T) {
	lines := swimSampleLines(40)
	const bad = 25
	f := strings.Split(lines[bad], "\t")
	f[3] = "1e30"
	lines[bad] = strings.Join(f, "\t")
	fsys := fstest.MapFS{"t.tsv": &fstest.MapFile{Data: []byte(strings.Join(lines, "\n") + "\n")}}
	full, err := NewSource(fsys, "t.tsv", SWIM, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for j, ok := full.Next(); ok; j, ok = full.Next() {
		full.Release(j)
		n++
	}
	want := full.Err()
	if n != bad || want == nil || !strings.Contains(want.Error(), "task limit") {
		t.Fatalf("full stream: %d jobs, error %v; want %d jobs and the task-limit error", n, want, bad)
	}
	for _, shards := range []int{2, 3, 4} {
		for s := 0; s < shards; s++ {
			src, err := NewShardSource(fsys, "t.tsv", SWIM, DefaultOptions(), s, shards)
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for j, ok := src.Next(); ok; j, ok = src.Next() {
				src.Release(j)
				got++
			}
			if owned := (bad + shards - 1 - s) / shards; got != owned {
				t.Errorf("shard %d/%d emitted %d jobs before record %d, want %d", s, shards, got, bad, owned)
			}
			if src.Err() == nil || src.Err().Error() != want.Error() {
				t.Errorf("shard %d/%d error %v, want %v", s, shards, src.Err(), want)
			}
			src.Close()
		}
	}
}

// benchSWIM is the benchmarks' input: 100K records in the vendored
// sample's shape, built once.
var benchSWIM = sync.OnceValue(func() fstest.MapFS {
	return fstest.MapFS{"bench.tsv": &fstest.MapFile{Data: swimSample(100_000)}}
})

// reportPerRecord adds ns/record and allocs/record to a benchmark that
// decodes b.N times the records of a file of size bytes.
func reportPerRecord(b *testing.B, records, size int, run func()) {
	b.SetBytes(int64(size))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(records)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/record")
}

// BenchmarkScanSWIM times Scan over an in-memory 100K-record SWIM file: the
// up-front validation pass of every imported replay.
func BenchmarkScanSWIM(b *testing.B) {
	fsys := benchSWIM()
	reportPerRecord(b, 100_000, len(fsys["bench.tsv"].Data), func() {
		st, err := Scan(fsys, "bench.tsv", SWIM, DefaultOptions())
		if err != nil || st.Jobs != 100_000 {
			b.Fatalf("scan: %v", err)
		}
	})
}

// BenchmarkSourceSWIM times streaming the same file through a Source, each
// job released as soon as it is read: the replay's decode path.
func BenchmarkSourceSWIM(b *testing.B) {
	fsys := benchSWIM()
	reportPerRecord(b, 100_000, len(fsys["bench.tsv"].Data), func() {
		src, err := NewSource(fsys, "bench.tsv", SWIM, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for j, ok := src.Next(); ok; j, ok = src.Next() {
			src.Release(j)
			n++
		}
		if src.Err() != nil || n != 100_000 {
			b.Fatalf("stream: %d jobs, %v", n, src.Err())
		}
		src.Close()
	})
}

// BenchmarkScanGoogle times Scan over the vendored Google task_events
// sample (10,931 records of 400 jobs, gzipped): the validation pass of a
// Google import, which groups records into jobs on one core. A record
// decodes without allocating; what is left is per job (its grouping state,
// its ID and its task map) and the pass's set-up.
func BenchmarkScanGoogle(b *testing.B) {
	const path = "testdata/samples/google_task_events_sample.csv.gz"
	raw, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	var plain bytes.Buffer
	if _, err := plain.ReadFrom(zr); err != nil {
		b.Fatal(err)
	}
	records := bytes.Count(plain.Bytes(), []byte("\n"))
	reportPerRecord(b, records, plain.Len(), func() {
		st, err := Scan(nil, path, GoogleTaskEvents, DefaultOptions())
		if err != nil || st.Jobs != 400 {
			b.Fatalf("scan: %v", err)
		}
	})
}
