package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// holds the output to BENCHMARK.json: every listed metric, with its unit,
// and nothing else.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			var out bytes.Buffer
			o := options{workload: name, seed: 7, seconds: 1, trace: trace, smoke: true, workDir: t.TempDir()}
			res, err := run(o, &out)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s", name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if !strings.Contains(out.String(), "digest: "+name) {
				t.Errorf("%s trace=%d: no digest line in\n%s", name, trace, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json lists %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%d: metric %s unit %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%d: metric %s = %v", name, trace, m.Name, got.Value)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
			if trace == 1 {
				var sum float64
				for _, l := range cpuLayers {
					sum += res.Metrics["cpu."+l].Value
				}
				if res.Metrics["cpu.samples"].Value > 0 && math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s: cpu shares sum to %v", name, sum)
				}
			}
		}
	}
}

// TestSeedDeterminism: the same seed simulates the same rounds; another
// seed simulates different ones.
func TestSeedDeterminism(t *testing.T) {
	digestOf := func(seed int64) string {
		var out bytes.Buffer
		o := options{workload: "mixed-gs", seed: seed, seconds: 1, smoke: true, workDir: t.TempDir()}
		if _, err := run(o, &out); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "digest:") {
				return line
			}
		}
		t.Fatalf("no digest in\n%s", out.String())
		return ""
	}
	a, b, c := digestOf(5), digestOf(5), digestOf(6)
	if a != b {
		t.Errorf("same seed, different digests:\n%s\n%s", a, b)
	}
	if strings.TrimPrefix(a, "digest: mixed-gs seed=5") == strings.TrimPrefix(c, "digest: mixed-gs seed=6") {
		t.Errorf("seeds 5 and 6 simulated identical rounds: %s", a)
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	for _, o := range []options{
		{workload: "nope", seconds: 1},
		{workload: "mixed-gs", seconds: 0},
		{workload: "mixed-gs", seconds: 1, trace: 2},
	} {
		if _, err := run(o, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%+v) succeeded", o)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 1000; v++ {
		h.add(v * 1000)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 1e6
		if got := h.quantile(q); math.Abs(got-want)/want > 0.0625 {
			t.Errorf("q%.2f = %v, want %v within 6.25%%", q, got, want)
		}
	}
	var empty hist
	if got := empty.quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}
