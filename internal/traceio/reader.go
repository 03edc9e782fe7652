package traceio

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"strings"
)

// maxLineBytes bounds one record line. Real trace records are well under a
// kilobyte; a multi-megabyte "line" means the file is not line-oriented
// (binary, wrong format) and should fail with a position instead of
// buffering unbounded memory.
const maxLineBytes = 1 << 20

// osFS adapts the operating-system file tree to io/fs.FS with plain paths
// (fs.ValidPath rejects absolute and dot-relative paths, which is exactly
// what CLI users type). Readers take any fs.FS — fstest.MapFS in tests,
// embedded samples, osFS{} from the CLIs.
type osFS struct{}

func (osFS) Open(name string) (fs.File, error) { return os.Open(name) }

// OSFS returns an fs.FS over the host filesystem accepting the path forms a
// command line produces (absolute, relative, dot-relative).
func OSFS() fs.FS { return osFS{} }

// openTrace validates the mapping rules and opens path inside fsys, nil
// meaning the host filesystem.
func openTrace(fsys fs.FS, path string, o Options) (io.ReadCloser, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if fsys == nil {
		fsys = OSFS()
	}
	return openFile(fsys, path)
}

// openFile opens path inside fsys, transparently decompressing ".gz" files.
// The returned closer closes both layers.
func openFile(fsys fs.FS, name string) (io.ReadCloser, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	if strings.EqualFold(path.Ext(name), ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("traceio: %s: not a gzip stream: %w", name, err)
		}
		return &gzipFile{zr: zr, f: f}, nil
	}
	return f, nil
}

// gzipFile closes the gzip layer and the underlying file together.
type gzipFile struct {
	zr *gzip.Reader
	f  fs.File
}

func (g *gzipFile) Read(p []byte) (int, error) { return g.zr.Read(p) }

func (g *gzipFile) Close() error {
	zerr := g.zr.Close()
	ferr := g.f.Close()
	if zerr != nil {
		return zerr
	}
	return ferr
}

// lineScanner yields one record line at a time with 1-based line numbers.
// It accepts \n and \r\n terminators (public traces circulate through
// Windows tooling often enough that mixed newlines are a fact of life),
// skips blank lines and '#' comments, and rejects lines over maxLineBytes
// with a positioned error instead of growing the buffer unbounded.
type lineScanner struct {
	sc   *bufio.Scanner
	file string
	// b is the current line with a trailing \r (from \r\n records)
	// stripped and surrounding whitespace intact otherwise — column offsets
	// must stay aligned with the raw file — and line its number. b aliases
	// the scanner's buffer, so it is valid until the next call to next.
	b    []byte
	line int
	err  error
}

func newLineScanner(r io.Reader, file string) *lineScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	return &lineScanner{sc: sc, file: file}
}

// next advances to the next non-blank, non-comment line. It returns false
// at end of input or on error (check err()).
func (s *lineScanner) next() bool {
	if s.err != nil {
		return false
	}
	for s.sc.Scan() {
		s.line++
		s.b = bytes.TrimSuffix(s.sc.Bytes(), []byte("\r"))
		t := bytes.TrimSpace(s.b)
		if len(t) == 0 || t[0] == '#' {
			continue
		}
		return true
	}
	if err := s.sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			s.err = decodeErrf(s.file, s.line+1, 0, nil,
				"record line exceeds %d bytes (is this a line-oriented trace file?)", maxLineBytes)
		} else {
			s.err = fmt.Errorf("traceio: %s: read: %w", s.file, err)
		}
	}
	return false
}
