package traceio

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func googleSource(text string, o Options) *Source {
	return NewReaderSource(strings.NewReader(text), "events.csv", GoogleTaskEvents, o)
}

// row builds one task_events CSV line (13 columns, v2 schema).
func row(ts float64, job string, idx, evt int, cpu string) string {
	return fmt.Sprintf("%.0f,,%s,%d,,%d,user,1,5,%s,0.01,0.0001,0", ts, job, idx, evt, cpu)
}

func TestGoogleGroupingAndMapping(t *testing.T) {
	o := DefaultOptions()
	// Timestamps are spaced so the 300 s close window shuts A and B in
	// mid-stream, when jobC arrives.
	text := strings.Join([]string{
		row(30e6, "jobA", 0, 0, "0.5"),
		row(30e6, "jobA", 1, 0, "0.25"),
		row(60e6, "jobB", 0, 0, ""),    // absent CPU -> floor work
		row(90e6, "jobA", 1, 0, "0.9"), // resubmit: first submit wins
		row(120e6, "jobA", 2, 0, "1.0"),
		row(150e6, "jobA", 0, 1, "0.5"),   // SCHEDULE: ignored for task set
		row(900e6, "jobC", 0, 0, "0.125"), // 900 s: closes A and B
		row(1500e6, "jobC", 1, 0, "0.125"),
	}, "\n") + "\n"

	jobs := drain(t, googleSource(text, o))
	if len(jobs) != 3 {
		t.Fatalf("grouped %d jobs, want 3", len(jobs))
	}

	a, b, c := jobs[0], jobs[1], jobs[2]
	if a.ID != 0 || b.ID != 1 || c.ID != 2 {
		t.Errorf("dense IDs = %d,%d,%d, want 0,1,2 in arrival order", a.ID, b.ID, c.ID)
	}
	if a.Arrival != 30.0 || b.Arrival != 60.0 || c.Arrival != 900.0 {
		t.Errorf("arrivals = %v,%v,%v, want 30,60,900 (microseconds × 1e-6)", a.Arrival, b.Arrival, c.Arrival)
	}
	// jobA: indexes 0,1,2 -> work 10×{0.5, 0.25 (first submit), 1.0}.
	wantA := []float64{5, 2.5, 10}
	if len(a.InputWork) != 3 {
		t.Fatalf("jobA has %d tasks, want 3 distinct submitted indexes", len(a.InputWork))
	}
	for i, w := range wantA {
		if math.Abs(a.InputWork[i]-w) > 1e-9 {
			t.Errorf("jobA task %d work = %v, want %v (index-ordered, first submit wins)", i, a.InputWork[i], w)
		}
	}
	floor := o.WorkScale * minWorkFrac
	if len(b.InputWork) != 1 || b.InputWork[0] != floor {
		t.Errorf("jobB (absent CPU) work = %v, want one task at the %v floor", b.InputWork, floor)
	}
	if len(c.InputWork) != 2 {
		t.Errorf("jobC has %d tasks, want 2", len(c.InputWork))
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Errorf("job %d invalid after mapping: %v", j.ID, err)
		}
	}
}

// TestGoogleArrivalOrder pins the emission contract: jobs come out sorted
// by (first-submit time, first-seen order) even when close order differs.
func TestGoogleArrivalOrder(t *testing.T) {
	o := DefaultOptions()
	// jobEarly opens first but keeps gaining submits; jobLate opens later
	// and closes first under the 300 s window. Emission must still be
	// jobEarly, jobLate.
	text := strings.Join([]string{
		row(3e6, "jobEarly", 0, 0, "0.1"),
		row(6e6, "jobLate", 0, 0, "0.1"),
		row(270e6, "jobEarly", 1, 0, "0.1"),
		row(450e6, "jobEarly", 2, 0, "0.1"), // jobLate now closed, jobEarly open
		row(1200e6, "tail", 0, 0, "0.1"),    // closes everything
	}, "\n") + "\n"
	jobs := drain(t, googleSource(text, o))
	if len(jobs) != 3 {
		t.Fatalf("grouped %d jobs, want 3", len(jobs))
	}
	prev := math.Inf(-1)
	for _, j := range jobs {
		if j.Arrival < prev {
			t.Fatalf("arrival order violated: job %d at %v after %v", j.ID, j.Arrival, prev)
		}
		prev = j.Arrival
	}
	if len(jobs[0].InputWork) != 3 {
		t.Errorf("first job has %d tasks, want jobEarly's 3", len(jobs[0].InputWork))
	}
}

func TestGoogleDecodeErrors(t *testing.T) {
	ok := row(1e6, "okjob", 0, 0, "0.5")
	cases := []struct {
		name     string
		text     string
		wantLine int
		wantSub  string
	}{
		{
			name:     "wrong field count",
			text:     ok + "\n1000,only,three\n",
			wantLine: 2,
			wantSub:  "has 3 fields, want 13",
		},
		{
			name:     "bad timestamp",
			text:     strings.Replace(ok, "1000000", "soon", 1) + "\n",
			wantLine: 1,
			wantSub:  `bad timestamp "soon"`,
		},
		{
			name:     "negative timestamp",
			text:     row(1e6, "a", 0, 0, "0.5") + "\n" + strings.Replace(row(1e6, "b", 0, 0, "0.5"), "1000000", "-5", 1) + "\n",
			wantLine: 2,
			wantSub:  "out of range",
		},
		{
			name:     "non-monotone timestamps",
			text:     row(9e6, "a", 0, 0, "0.5") + "\n" + row(8e6, "b", 0, 0, "0.5") + "\n",
			wantLine: 2,
			wantSub:  "must be sorted by timestamp",
		},
		{
			name:     "empty job id",
			text:     row(1e6, "", 0, 0, "0.5") + "\n",
			wantLine: 1,
			wantSub:  "empty job id",
		},
		{
			name:     "negative task index",
			text:     row(1e6, "a", -3, 0, "0.5") + "\n",
			wantLine: 1,
			wantSub:  "negative task index",
		},
		{
			name:     "malformed task index",
			text:     strings.Replace(row(1e6, "a", 0, 0, "0.5"), ",a,0,", ",a,+x,", 1) + "\n",
			wantLine: 1,
			wantSub:  `bad task index "+x": strconv.ParseInt: parsing "+x": invalid syntax`,
		},
		{
			name:     "malformed event type",
			text:     strings.Replace(row(1e6, "a", 0, 0, "0.5"), ",,0,user", ",,zero,user", 1) + "\n",
			wantLine: 1,
			wantSub:  `bad event type "zero": strconv.Atoi: parsing "zero": invalid syntax`,
		},
		{
			name:     "event type out of range",
			text:     row(1e6, "a", 0, 11, "0.5") + "\n",
			wantLine: 1,
			wantSub:  "event type 11 out of",
		},
		{
			name:     "CPU request over 1",
			text:     row(1e6, "a", 0, 0, "1.5") + "\n",
			wantLine: 1,
			wantSub:  "CPU request 1.5 out of [0, 1]",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := googleSource(tc.text, DefaultOptions())
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
			if de.Pos.File != "events.csv" || de.Pos.Line != tc.wantLine {
				t.Errorf("error at %s, want events.csv:%d", de.Pos, tc.wantLine)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("events.csv:%d", tc.wantLine)) {
				t.Errorf("error text %q does not render the file:line position", err)
			}
		})
	}
}

// TestGoogleHugeTaskCount pins the MaxTasks guard on the grouped task set.
func TestGoogleHugeTaskCount(t *testing.T) {
	o := DefaultOptions()
	o.MaxTasks = 3
	var b strings.Builder
	for i := 0; i < 5; i++ {
		b.WriteString(row(1e6, "big", i, 0, "0.5"))
		b.WriteByte('\n')
	}
	src := googleSource(b.String(), o)
	for {
		j, live := src.Next()
		if !live {
			break
		}
		src.Release(j)
	}
	err := src.Err()
	var de *DecodeError
	if err == nil || !errors.As(err, &de) {
		t.Fatalf("want a positioned DecodeError for >MaxTasks submits, got %v", err)
	}
	if de.Pos.Line != 4 {
		t.Errorf("error at line %d, want 4 (the submit that crossed the limit)", de.Pos.Line)
	}
	if !strings.Contains(err.Error(), "over 3 submitted tasks") {
		t.Errorf("error %q does not name the limit", err)
	}
}

// sameParseInt fails t unless parseInt(s) returns strconv.ParseInt's value
// and error text.
func sameParseInt(t *testing.T, s string) {
	t.Helper()
	got, gotErr := parseInt([]byte(s))
	want, wantErr := strconv.ParseInt(s, 10, 64)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("parseInt(%q) error %v, strconv %v", s, gotErr, wantErr)
	}
	if got != want {
		t.Fatalf("parseInt(%q) = %d, strconv %d", s, got, want)
	}
}

// TestParseIntMatchesStrconv: parseInt's fast path (at most 18 plain
// digits) and its fallback agree with strconv.ParseInt on the edges of
// that path, signs, underscores and empty input, and on seeded random
// strings of digits mixed with characters an integer cannot hold.
func TestParseIntMatchesStrconv(t *testing.T) {
	for _, s := range []string{
		"", "0", "00", "007", "-0", "+0", "-5", "+5", "-", "+", "--5", "+-5",
		"1_000", "_1", "1_", "0x10", "1e3", "1.0", " 5", "5 ", "٣",
		"123456789012345678", "999999999999999999", "000000000000000001",
		"1234567890123456789", "0000000000000000001", "-999999999999999999",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"-9223372036854775809", "99999999999999999999", "00000000000000000000000",
	} {
		sameParseInt(t, s)
	}
	rng := rand.New(rand.NewSource(31))
	tokens := []string{"+", "-", "_", " ", "x", ".", "e"}
	for i := 0; i < 100_000; i++ {
		n := rng.Intn(23)
		var sb strings.Builder
		for sb.Len() < n {
			if rng.Intn(6) == 0 {
				sb.WriteString(tokens[rng.Intn(len(tokens))])
			} else {
				sb.WriteByte(byte('0' + rng.Intn(10)))
			}
		}
		sameParseInt(t, sb.String()[:n])
	}
	// Plain digits from 1 to 21 long, often led by zeros.
	for i := 0; i < 100_000; i++ {
		var sb strings.Builder
		for z := rng.Intn(4); z > 0; z-- {
			sb.WriteByte('0')
		}
		for d := 1 + rng.Intn(21); d > 0; d-- {
			sb.WriteByte(byte('0' + rng.Intn(10)))
		}
		sameParseInt(t, sb.String())
	}
}
