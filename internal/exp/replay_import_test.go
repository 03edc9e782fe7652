package exp

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/approx-analytics/grass/internal/sched"
	"github.com/approx-analytics/grass/internal/traceio"
)

const (
	swimSamplePath   = "../traceio/testdata/samples/swim_fb_sample.tsv"
	googleSamplePath = "../traceio/testdata/samples/google_task_events_sample.csv.gz"
)

// importReplayConfig replays a vendored sample on a small cluster.
func importReplayConfig(file string, format traceio.Format) ReplayConfig {
	rc := DefaultReplayConfig(0)
	rc.TraceFile = file
	rc.TraceFormat = format
	rc.Machines = 40
	rc.Policy = "gs"
	return rc
}

// TestReplayImportedSamples replays both vendored real-trace samples end to
// end, partitioned 4 ways, and checks the aggregates are real and exactly
// reproducible — the in-test half of the CI golden gate.
func TestReplayImportedSamples(t *testing.T) {
	if testing.Short() {
		t.Skip("full streaming replay")
	}
	cases := []struct {
		name   string
		file   string
		format traceio.Format
		jobs   int
	}{
		{"swim", swimSamplePath, traceio.SWIM, 2000},
		{"google", googleSamplePath, traceio.GoogleTaskEvents, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rc := importReplayConfig(tc.file, tc.format)
			rc.Partitions = 4
			rs, err := Replay(rc)
			if err != nil {
				t.Fatal(err)
			}
			if rs.Jobs != tc.jobs {
				t.Fatalf("replayed %d jobs, want %d", rs.Jobs, tc.jobs)
			}
			if got := rs.DeadlineJobs + rs.ErrorJobs; got != tc.jobs {
				t.Fatalf("classes sum to %d, want %d", got, tc.jobs)
			}
			if rs.DeadlineJobs == 0 || rs.ErrorJobs == 0 {
				t.Fatalf("mixed-bound import degenerate: %d deadline, %d error", rs.DeadlineJobs, rs.ErrorJobs)
			}
			if rs.MeanAccuracy <= 0 || rs.MeanAccuracy > 1 {
				t.Fatalf("mean accuracy %v out of (0, 1]", rs.MeanAccuracy)
			}
			if rs.Makespan <= 0 || rs.Events == 0 || rs.MeanInputDur <= 0 {
				t.Fatalf("empty aggregates: %+v", rs)
			}

			// Identical reruns must agree exactly.
			again, err := Replay(rc)
			if err != nil {
				t.Fatal(err)
			}
			a, b := *rs, *again
			a.Wall, b.Wall = 0, 0
			a.ShardWalls, b.ShardWalls = nil, nil
			a.HeapHighWater, b.HeapHighWater = 0, 0
			a.HeapSysHighWater, b.HeapSysHighWater = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Errorf("rerun replay diverged:\n  first %+v\n  other %+v", a, b)
			}
		})
	}
}

// TestReplayImportedConfigErrors: the actionable-error contract for the new
// inputs at the library layer.
func TestReplayImportedConfigErrors(t *testing.T) {
	missing := importReplayConfig("testdata/does-not-exist.tsv", traceio.SWIM)
	if _, err := Replay(missing); err == nil || !strings.Contains(err.Error(), "does-not-exist") {
		t.Errorf("missing trace file error %v should name the file", err)
	}

	few := importReplayConfig(swimSamplePath, traceio.SWIM)
	few.Partitions = 4000 // more partitions than the sample's 2000 jobs
	if _, err := Replay(few); err == nil || !strings.Contains(err.Error(), "partition") {
		t.Errorf("jobs<partitions error %v should explain the partition floor", err)
	}
}

// swimLineReader lazily synthesizes a SWIM trace of n single-task jobs: an
// io.Reader over a file that never exists in memory. Arrival spacing keeps
// the simulated queues stable so in-flight state, not queue growth,
// dominates the replay's footprint.
type swimLineReader struct {
	n, next int
	buf     []byte
}

func (r *swimLineReader) Read(p []byte) (int, error) {
	for len(r.buf) == 0 {
		if r.next >= r.n {
			return 0, io.EOF
		}
		// 64 MiB input -> 1 task of work 5; spacing 0.025 -> ~40 jobs/unit
		// against ~80 tasks/unit of cluster capacity.
		r.buf = fmt.Appendf(r.buf[:0], "job%d\t%.3f\t0.025\t67108864\t0\t0\n", r.next, float64(r.next)*0.025)
		r.next++
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}

// replaySynthesizedSWIM replays n synthesized SWIM records through the real
// import decoder via the NewSource hook and reports the stats.
func replaySynthesizedSWIM(t *testing.T, n int) *ReplayStats {
	t.Helper()
	rc := DefaultReplayConfig(n)
	rc.Policy = "nospec"
	rc.NewSource = func(part, parts int) (sched.Source, error) {
		o := traceio.DefaultOptions()
		return traceio.NewShardReaderSource(&swimLineReader{n: n}, "synthetic.tsv", traceio.SWIM, o, part, parts), nil
	}
	rs, err := Replay(rc)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Jobs != n {
		t.Fatalf("replayed %d jobs, want %d", rs.Jobs, n)
	}
	if rs.MeanUtilization <= 0 || rs.MeanUtilization >= 1 {
		t.Fatalf("utilization %v: synthesized arrival spacing no longer keeps queues stable", rs.MeanUtilization)
	}
	if rs.HeapHighWater == 0 {
		t.Fatal("memory high-water not sampled")
	}
	return rs
}

// TestReplayImportedBoundedMemory is the acceptance gate: decoding and
// replaying a 1M-record SWIM stream must hold the heap high-water flat in
// the trace length — the footprint at 10x the records stays within small
// constant factors, and absolutely small.
func TestReplayImportedBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("million-record replay")
	}
	small, large := 100_000, 1_000_000
	if raceEnabled {
		small, large = 10_000, 100_000 // same 10x ratio under the ~10x slower race runtime
	}
	base := replaySynthesizedSWIM(t, small)
	big := replaySynthesizedSWIM(t, large)
	const mib = 1 << 20
	if big.HeapHighWater > 64*mib {
		t.Errorf("1M-record replay peaked at %d MiB of live heap, want < 64 MiB", big.HeapHighWater/mib)
	}
	// "Flat" with headroom: sampling jitter and GC timing move the
	// high-water by small constants, but O(records) retention would show
	// up as ~10x here.
	if limit := 3*base.HeapHighWater + 16*mib; big.HeapHighWater > limit {
		t.Errorf("heap high-water grew with trace length: %d records -> %d bytes, %d records -> %d bytes",
			small, base.HeapHighWater, large, big.HeapHighWater)
	}
}
