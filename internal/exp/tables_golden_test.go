package exp

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestExperimentTablesGolden pins every experiment table, rendered at
// tiny(), byte for byte. The harness is deterministic (each run derives its
// randomness from its own seed), so a refactor of the runners, the
// scheduler or the trace generator that moves any cell of any figure fails
// here, not only one that moves the two headline numbers.
//
// Goldens live in testdata/golden/tables/<id>.txt. To regenerate after a
// deliberate behaviour change, delete the files that should change and run
// `go test ./internal/exp -run TestExperimentTablesGolden`: a missing
// golden is recorded from the current output and the test fails once, so a
// regeneration is always reviewed as a diff.
func TestExperimentTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at tiny()")
	}
	dir := filepath.Join("testdata", "golden", "tables")
	for _, e := range All() {
		got := render(t, tiny(), e.Run)
		path := filepath.Join(dir, e.ID+".txt")
		want, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Errorf("%s: no golden; recorded the current output", path)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from %s.\ngot:\n%s\nwant:\n%s", e.ID, path, got, want)
		}
	}
}
