package traceio

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/fstest"
)

// FuzzTraceioDecode fuzzes both decoders with arbitrary bytes. The first
// input byte selects the format (even = SWIM, odd = Google task_events);
// the rest is the file body. The contract under fuzzing:
//
//   - decoding never panics, whatever the bytes (truncated records, mixed
//     newlines, binary garbage, absurd numbers);
//   - every job emitted before the stream ends passes task.Job.Validate;
//   - a stream that ends in an error reports a *DecodeError carrying a
//     1-based line (and the fuzz file name), never a bare error;
//   - memory stays bounded: the decoder is line-oriented, so the 1 MiB
//     line cap converts pathological inputs into positioned errors;
//   - a SWIM file's Scan equals the one-job-at-a-time fold over a Source
//     (scanSource): the same stats bit for bit, or the same error.
func FuzzTraceioDecode(f *testing.F) {
	f.Add([]byte("\x00job0\t0\t1\t1000000\t0\t0\n"))
	f.Add([]byte("\x00a\t0\t1\t300000000\t64000000\t0\r\njob\t1\t1\t0\t0\t0\n"))
	f.Add([]byte("\x00# comment\n\nc\t0\t1\t1e30\t0\t0\n"))
	f.Add([]byte("\x00truncated\t0\t1\n"))
	f.Add([]byte("\x01100,,job1,0,,0,u,1,5,0.5,0.1,0.01,0\n"))
	f.Add([]byte("\x01100,,job1,0,,0,u,1,5,,0.1,0.01,0\n200,,job2,0,,0,u,1,5,0.9,0.1,0.01,0\n"))
	f.Add([]byte("\x019,,a,0,,0,u,1,5,0.5,0.1,0.01,0\n8,,b,0,,0,u,1,5,0.5,0.1,0.01,0\n"))
	f.Add([]byte("\x01100,,job1,-1,,99,u,1,5,7,0.1,0.01,0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		format := SWIM
		if data[0]%2 == 1 {
			format = GoogleTaskEvents
		}
		o := DefaultOptions()
		o.MaxTasks = 10_000 // keep absurd-but-legal inputs fast
		src := NewReaderSource(bytes.NewReader(data[1:]), "fuzz", format, o)
		emitted := 0
		for {
			j, ok := src.Next()
			if !ok {
				break
			}
			emitted++
			if err := j.Validate(); err != nil {
				t.Fatalf("decoder emitted an invalid job (#%d): %v", emitted, err)
			}
			if j.ID != emitted-1 {
				t.Fatalf("job IDs not dense: got %d at position %d", j.ID, emitted-1)
			}
			src.Release(j)
			if emitted > 1_000_000 {
				t.Fatal("unbounded emission")
			}
		}
		if err := src.Err(); err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("stream error %T is not a positioned *DecodeError: %v", err, err)
			}
			if de.Pos.File != "fuzz" || de.Pos.Line < 1 {
				t.Fatalf("decode error lacks a usable position: %+v", de.Pos)
			}
			if !strings.Contains(err.Error(), "fuzz:") {
				t.Fatalf("decode error %q does not render its position", err)
			}
		}
		if format == SWIM {
			fsys := fstest.MapFS{"fuzz": &fstest.MapFile{Data: data[1:]}}
			got, gotErr := Scan(fsys, "fuzz", SWIM, o)
			want, wantErr := scanSource(fsys, "fuzz", SWIM, o)
			sameScan(t, "fuzz input", got, gotErr, want, wantErr)
		}
	})
}
