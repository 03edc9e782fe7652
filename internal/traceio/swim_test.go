package traceio

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"github.com/approx-analytics/grass/internal/task"
)

// drain decodes every job from a reader-backed source, failing the test on
// any decode error.
func drain(t *testing.T, src *Source) []*task.Job {
	t.Helper()
	var jobs []*task.Job
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		jobs = append(jobs, j)
	}
	if err := src.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return jobs
}

func swimSource(text string, o Options) *Source {
	return NewReaderSource(strings.NewReader(text), "test.tsv", SWIM, o)
}

const mib = 1 << 20

func TestSWIMMappingRules(t *testing.T) {
	o := DefaultOptions()
	o.BytesPerTask = 128 * mib
	o.WorkScale = 10

	text := strings.Join([]string{
		"# a comment line",
		"",
		fmt.Sprintf("j0\t0.0\t1.5\t%d\t0\t0", 300*mib),           // 3 tasks, partial tail
		fmt.Sprintf("j1\t1.5\t0.5\t0\t0\t0"),                     // zero input -> 1 floor task
		fmt.Sprintf("j2\t2.0\t0.5\t%d\t%d\t0", 256*mib, 64*mib),  // reduce phase
		fmt.Sprintf("j3\t2.0\t0.1\t%d\t%d\t5", 128*mib, 999*mib), // shuffle capped at input tasks
	}, "\n") + "\n"

	jobs := drain(t, swimSource(text, o))
	if len(jobs) != 4 {
		t.Fatalf("decoded %d jobs, want 4", len(jobs))
	}

	j0 := jobs[0]
	if j0.ID != 0 || j0.Arrival != 0 {
		t.Errorf("j0 id/arrival = %d/%v, want 0/0", j0.ID, j0.Arrival)
	}
	want0 := []float64{10, 10, 10 * float64(300*mib-2*128*mib) / float64(128*mib)}
	if len(j0.InputWork) != 3 {
		t.Fatalf("j0 has %d tasks, want 3 (300 MiB / 128 MiB splits)", len(j0.InputWork))
	}
	for i, w := range want0 {
		if math.Abs(j0.InputWork[i]-w) > 1e-9 {
			t.Errorf("j0 task %d work = %v, want %v", i, j0.InputWork[i], w)
		}
	}
	if len(j0.Phases) != 0 {
		t.Errorf("j0 has %d phases, want 0 (no shuffle)", len(j0.Phases))
	}

	j1 := jobs[1]
	if len(j1.InputWork) != 1 || j1.InputWork[0] != o.WorkScale*minWorkFrac {
		t.Errorf("zero-input job = %v, want one task at the %v floor", j1.InputWork, o.WorkScale*minWorkFrac)
	}
	if j1.Arrival != 1.5 {
		t.Errorf("j1 arrival = %v, want 1.5 (seconds 1:1)", j1.Arrival)
	}

	j2 := jobs[2]
	if len(j2.InputWork) != 2 {
		t.Fatalf("j2 has %d input tasks, want 2", len(j2.InputWork))
	}
	if len(j2.Phases) != 1 || j2.Phases[0].NumTasks != 1 || j2.Phases[0].WorkScale != o.WorkScale {
		t.Errorf("j2 phases = %+v, want one 1-task reduce phase at WorkScale", j2.Phases)
	}

	j3 := jobs[3]
	if len(j3.Phases) != 1 || j3.Phases[0].NumTasks != len(j3.InputWork) {
		t.Errorf("j3 reduce tasks = %+v with %d input tasks; fan-in must cap at fan-out", j3.Phases, len(j3.InputWork))
	}

	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Errorf("job %d invalid after mapping: %v", j.ID, err)
		}
	}
}

// TestSWIMBoundAssignmentDeterministic pins that bounds are a pure function
// of (Options, dense job ID): re-decoding yields identical bounds.
func TestSWIMBoundAssignmentDeterministic(t *testing.T) {
	o := DefaultOptions()
	text := fmt.Sprintf("a\t0\t1\t%d\t0\t0\nb\t1\t1\t%d\t%d\t0\n", 64*mib, 512*mib, 100*mib)
	a := drain(t, swimSource(text, o))
	b := drain(t, swimSource(text, o))
	for i := range a {
		if a[i].Bound != b[i].Bound || a[i].DeadlineFactor != b[i].DeadlineFactor {
			t.Errorf("job %d bound differs across decodes: %+v vs %+v", i, a[i].Bound, b[i].Bound)
		}
	}
}

// TestSWIMDecodeErrors is the satellite table: every malformed input fails
// with a DecodeError carrying the exact file and line (and column when the
// error is inside a field).
func TestSWIMDecodeErrors(t *testing.T) {
	ok := fmt.Sprintf("good\t0\t1\t%d\t0\t0", 64*mib)
	cases := []struct {
		name     string
		text     string
		wantLine int
		wantCol  int // 0 = whole record
		wantSub  string
	}{
		{
			name:     "too few fields",
			text:     ok + "\nbad\t1\t1\t5\n",
			wantLine: 2,
			wantSub:  "has 4 fields, want 6",
		},
		{
			name:     "too many fields",
			text:     "bad\t0\t1\t5\t0\t0\textra\n",
			wantLine: 1,
			wantSub:  "has 7 fields",
		},
		{
			name:     "non-monotone submit time",
			text:     ok + "\nlate\t5\t1\t5\t0\t0\nearly\t4\t1\t5\t0\t0\n",
			wantLine: 3,
			wantSub:  "before previous record",
		},
		{
			name:     "negative inter-arrival gap",
			text:     "bad\t0\t-2.5\t5\t0\t0\n",
			wantLine: 1,
			wantCol:  7,
			wantSub:  "inter-arrival gap",
		},
		{
			name:     "negative map bytes",
			text:     ok + "\nbad\t1\t1\t-9\t0\t0\n",
			wantLine: 2,
			wantSub:  "map input bytes",
		},
		{
			name:     "unparsable float",
			text:     "bad\t0\t1\tpotato\t0\t0\n",
			wantLine: 1,
			wantCol:  9,
			wantSub:  `bad map input bytes "potato"`,
		},
		{
			name:     "NaN submit time",
			text:     "bad\tNaN\t1\t5\t0\t0\n",
			wantLine: 1,
			wantCol:  5,
			wantSub:  "out of range",
		},
		{
			name:     "empty job id",
			text:     "\t0\t1\t5\t0\t0\n",
			wantLine: 1,
			wantCol:  1,
			wantSub:  "empty job id",
		},
		{
			name:     "huge task count",
			text:     "bad\t0\t1\t1e30\t0\t0\n",
			wantLine: 1,
			wantSub:  "over the 100000-task limit",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := swimSource(tc.text, DefaultOptions())
			for {
				j, live := src.Next()
				if !live {
					break
				}
				src.Release(j)
			}
			err := src.Err()
			if err == nil {
				t.Fatal("decode succeeded, want a positioned error")
			}
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("error %T is not a *DecodeError: %v", err, err)
			}
			if de.Pos.File != "test.tsv" || de.Pos.Line != tc.wantLine {
				t.Errorf("error at %s, want test.tsv:%d", de.Pos, tc.wantLine)
			}
			if tc.wantCol != 0 && de.Pos.Column != tc.wantCol {
				t.Errorf("error column %d, want %d", de.Pos.Column, tc.wantCol)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("test.tsv:%d", tc.wantLine)) {
				t.Errorf("error text %q does not render the file:line position", err)
			}
		})
	}
}

// TestSWIMWindowsNewlines pins that \r\n files decode identically to \n
// files (the published traces circulate with both).
func TestSWIMWindowsNewlines(t *testing.T) {
	o := DefaultOptions()
	unix := fmt.Sprintf("a\t0\t1\t%d\t0\t0\nb\t1\t1\t%d\t0\t0\n", 64*mib, 300*mib)
	dos := strings.ReplaceAll(unix, "\n", "\r\n")
	ju, jd := drain(t, swimSource(unix, o)), drain(t, swimSource(dos, o))
	if len(ju) != len(jd) {
		t.Fatalf("unix %d jobs, dos %d jobs", len(ju), len(jd))
	}
	for i := range ju {
		if fmt.Sprintf("%+v", ju[i]) != fmt.Sprintf("%+v", jd[i]) {
			t.Errorf("job %d differs across newline styles:\n  unix %+v\n  dos  %+v", i, ju[i], jd[i])
		}
	}
}

func TestTasksForOverflowGuard(t *testing.T) {
	if n, ok := tasksFor(1e300, 1, 100_000); ok {
		t.Errorf("tasksFor(1e300) = %d, ok; want rejection", n)
	}
	if n, ok := tasksFor(0, 128, 10); !ok || n != 1 {
		t.Errorf("tasksFor(0) = %d,%v; want 1 task minimum", n, ok)
	}
	if n, ok := tasksFor(129, 128, 10); !ok || n != 2 {
		t.Errorf("tasksFor(129, 128) = %d,%v; want ceil = 2", n, ok)
	}
}

// sameParse fails unless parseDecimal(s) is strconv.ParseFloat(s, 64): the
// same value bits, or the same error text.
func sameParse(t *testing.T, s string) {
	t.Helper()
	got, gotErr := parseDecimal([]byte(s))
	want, wantErr := strconv.ParseFloat(s, 64)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("parseDecimal(%q) error %v, strconv %v", s, gotErr, wantErr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("parseDecimal(%q) = %v (%#x), strconv %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestParseDecimalEdges pins the fast path's limits: 15 significant digits
// and 22 fraction digits are exact, one more of either is not, and the
// degenerate decimals parse or fail as strconv's do.
func TestParseDecimalEdges(t *testing.T) {
	for _, s := range []string{
		"", ".", "..", "1.", ".5", "0", "00", "0.", ".0", "0.000", "1.2.3",
		"007", "007.50", "0000000000000000000001.5", "0.0000000000000000000001",
		"123456789012345", "1234567890123456", "12345678901234567",
		"999999999999999", "9999999999999999", "99999999999999999",
		"99999999999999.9", "999999999999999.9", "9999999999999999.9",
		"0.9999999999999999", "0.12345678901234567", "4503599627370497.5",
		"0.0000000000000000000001", "0.00000000000000000000001",
		"0.0000000000000000000003", "0.00000000000000000000003",
		"1.0000000000000000000003", "0.0000000123456789012345",
		"0.00000000123456789012345", "8.0000000000000000000001",
		"32212254720", "1108281.393", "0.001",
	} {
		sameParse(t, s)
	}
}

// TestParseDecimalMatchesStrconv: seeded random strings of length 0 to 30
// over the characters a float literal can hold (and some it cannot) parse
// exactly as strconv.ParseFloat does.
func TestParseDecimalMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	tokens := []string{".", "e", "+", "-", "_", "x", "p", "inf", "nan", " "}
	for i := 0; i < 100_000; i++ {
		n := rng.Intn(31)
		var sb strings.Builder
		for sb.Len() < n {
			if rng.Intn(4) == 0 {
				sb.WriteString(tokens[rng.Intn(len(tokens))])
			} else {
				sb.WriteByte(byte('0' + rng.Intn(10)))
			}
		}
		sameParse(t, sb.String()[:n])
	}
	// Plain decimals around the fast path's limits: up to 20 digits with
	// up to 25 after the dot, often led by zeros.
	for i := 0; i < 100_000; i++ {
		var sb strings.Builder
		for z := rng.Intn(4); z > 0; z-- {
			sb.WriteByte('0')
		}
		intDigits, fracDigits := rng.Intn(12), rng.Intn(26)
		for d := 0; d < intDigits; d++ {
			sb.WriteByte(byte('0' + rng.Intn(10)))
		}
		if fracDigits > 0 || rng.Intn(2) == 0 {
			sb.WriteByte('.')
		}
		for z := rng.Intn(fracDigits + 1); z > 0; z-- {
			sb.WriteByte('0')
			fracDigits--
		}
		for d := 0; d < fracDigits; d++ {
			sb.WriteByte(byte('0' + rng.Intn(10)))
		}
		sameParse(t, sb.String())
	}
}
