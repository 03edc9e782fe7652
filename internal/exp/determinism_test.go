package exp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/approx-analytics/grass/internal/metrics"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/trace"
)

// render executes one experiment and returns its rendered table bytes.
func render(t *testing.T, cfg Config, run func(Config) (*Table, error)) []byte {
	t.Helper()
	tab, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	return buf.Bytes()
}

// TestWorkerCountInvariance is the parallel harness's core guarantee: the
// same experiment produces byte-identical rendered output with 1 worker and
// with many, because every simulation derives its randomness from its own
// seed and lands in its own result slot.
func TestWorkerCountInvariance(t *testing.T) {
	serial := tiny()
	serial.Workers = 1
	parallel := tiny()
	parallel.Workers = 8

	// PotentialGains exercises runScenarios (policy × seed grid); the
	// paired improvement is covered by TestImprovementWorkerInvariance.
	a := render(t, serial, PotentialGains)
	b := render(t, parallel, PotentialGains)
	if !bytes.Equal(a, b) {
		t.Fatalf("worker count changed experiment output.\n1 worker:\n%s\n8 workers:\n%s", a, b)
	}
}

// TestImprovementWorkerInvariance pins the paired-seed improvement
// (runScenarios plus runSet.improvement) to the serial result.
func TestImprovementWorkerInvariance(t *testing.T) {
	serial := tiny()
	serial.Workers = 1
	serial.Seeds = []int64{1, 2, 3}
	parallel := serial
	parallel.Workers = 6

	get := func(c Config) float64 {
		sets, err := c.runScenarios([]scenario{
			hadoop(trace.Facebook, trace.ErrorBound, []policySpec{named("late"), named("grass")})})
		if err != nil {
			t.Fatal(err)
		}
		return sets[0].improvement("late", "grass", metrics.SpeedupPct, nil)
	}
	a, b := get(serial), get(parallel)
	if a != b {
		t.Fatalf("improvement differs across worker counts: %v (1 worker) vs %v (6 workers)", a, b)
	}
}

// TestForEachErrorDeterministic: the pool reports the lowest-index error no
// matter which worker hits one first. Every (policy, seed) cell fails with
// a distinct message, so a race-dependent index choice would change the
// returned error text.
func TestForEachErrorDeterministic(t *testing.T) {
	bogus := tiny()
	bogus.Workers = 4
	bogus.Seeds = []int64{1, 2, 3, 4}
	failing := policySpec{name: "failing", make: func(seed int64) (spec.Factory, error) {
		return nil, fmt.Errorf("boom seed %d", seed)
	}}
	// The failing policy is first, so grid index 0 = (failing, seed 1) must
	// always win even when a later cell fails earlier in wall-clock time.
	for i := 0; i < 5; i++ {
		_, err := bogus.runScenarios([]scenario{
			hadoop(trace.Facebook, trace.ErrorBound, []policySpec{failing, named("late")})})
		if err == nil {
			t.Fatal("failing policy did not error")
		}
		if !strings.Contains(err.Error(), "boom seed 1") {
			t.Fatalf("run %d returned non-lowest-index error: %v", i, err)
		}
	}
}
