package core

import (
	"math"

	"github.com/approx-analytics/grass/internal/task"
)

// FactorSet selects which of §4.1's three switching factors the learner
// conditions on. The deadline/error bound is always used — it is the query
// variable — so the set controls the other two. The full GRASS uses both;
// Figures 13/14's "Best-1" uses neither and "Best-2" uses one.
type FactorSet struct {
	// Utilization buckets samples by the job's wave count, approximated from
	// cluster utilization / slot share ("we augment our samples ... with the
	// number of waves, simply approximated using current cluster
	// utilization").
	Utilization bool
	// Accuracy buckets samples by the measured estimation accuracy of t_rem
	// and t_new.
	Accuracy bool
}

// AllFactors is the full GRASS factor set.
func AllFactors() FactorSet { return FactorSet{Utilization: true, Accuracy: true} }

// samplePolicy identifies which pure policy produced a sample.
type samplePolicy uint8

const (
	sampleGS samplePolicy = iota
	sampleRAS
)

// wavesBucket quantizes a job's (fractional) wave count. NaN compares
// false against every boundary, so without the explicit check it would
// fall through to the highest bucket — a NaN factor input is an unknown,
// not a many-waves job, so it clamps to the lowest bucket instead (and a
// NaN query then matches the same bucket a NaN-factored sample recorded
// under).
func wavesBucket(waves float64) uint8 {
	switch {
	case math.IsNaN(waves), waves <= 1:
		return 0
	case waves <= 2:
		return 1
	case waves <= 4:
		return 2
	default:
		return 3
	}
}

// accBucket quantizes estimation accuracy. NaN would otherwise fall
// through to the highest-accuracy bucket; like wavesBucket it clamps to
// the lowest.
func accBucket(acc float64) uint8 {
	switch {
	case math.IsNaN(acc), acc < 0.65:
		return 0
	case acc < 0.8:
		return 1
	default:
		return 2
	}
}

// LearnerStore is the learner API the GRASS policy drives: Record feeds a
// sample job's completion curve in, Aggregate answers the switch-point
// search with the average completion curve of the matched samples, and
// Samples reports store occupancy (diagnostics and tests). Two
// implementations exist: the per-bin ring-buffer Learner (the original,
// partition-scoped) and the mergeable SketchLearner, whose state folds
// exactly across partitions.
type LearnerStore interface {
	// Record stores one sample job's completion curve with its factor
	// values. Nil or empty curves are ignored.
	Record(p samplePolicy, bin task.SizeBin, waves, estAcc float64, c *Curve)
	// Aggregate returns the average completion curve of the samples
	// matching the query's factor values, with hierarchical fallback when
	// the exact bucket is sparse. ok is false with no samples.
	Aggregate(p samplePolicy, bin task.SizeBin, waves, estAcc float64) (*Curve, bool)
	// Samples reports how many sample jobs are stored for a size bin and
	// policy.
	Samples(bin task.SizeBin, p samplePolicy) int
	// version changes whenever an Aggregate answer may have: on every
	// Record, and for the sketch learner on Merge and SetBase too.
	version() uint64
}

// sample is one recorded pure-GS or pure-RAS job execution.
type sample struct {
	waves uint8
	acc   uint8
	curve *Curve
}

// binKey groups samples the way the paper compares them: "we bucket jobs by
// their number of tasks and compare only within jobs of the same bucket".
type binKey struct {
	bin    task.SizeBin
	policy samplePolicy
}

// Learner is GRASS's shared store of sample-job completion curves. One
// Learner serves every job in a cluster (it is owned by the policy Factory).
// It is not safe for concurrent use; the simulator is single-threaded.
type Learner struct {
	factors    FactorSet
	maxPerKey  int
	minSamples int
	buckets    map[binKey][]sample // ring buffer per key
	next       map[binKey]int

	records  uint64 // bumped on Record, invalidates aggregate cache
	aggCache map[aggKey]aggEntry
}

type aggKey struct {
	bin    task.SizeBin
	policy samplePolicy
	waves  uint8
	acc    uint8
}

type aggEntry struct {
	version uint64
	curve   *Curve
}

// NewLearner builds an empty learner conditioning on the given factors.
func NewLearner(factors FactorSet) *Learner {
	return &Learner{
		factors:    factors,
		maxPerKey:  48,
		minSamples: 3,
		buckets:    make(map[binKey][]sample),
		next:       make(map[binKey]int),
		aggCache:   make(map[aggKey]aggEntry),
	}
}

// Record stores a sample job's completion curve with its factor values.
// Curves are downsampled to bound memory; the store keeps the most recent
// maxPerKey samples so it stays "abreast with dynamic changes in clusters".
func (l *Learner) Record(p samplePolicy, bin task.SizeBin, waves, estAcc float64, c *Curve) {
	if c == nil || c.Empty() {
		return
	}
	k := binKey{bin: bin, policy: p}
	s := sample{waves: wavesBucket(waves), acc: accBucket(estAcc), curve: c.Downsample(64)}
	l.records++
	ring := l.buckets[k]
	if len(ring) < l.maxPerKey {
		l.buckets[k] = append(ring, s)
		return
	}
	ring[l.next[k]] = s
	l.next[k] = (l.next[k] + 1) % l.maxPerKey
}

func (l *Learner) version() uint64 { return l.records }

// Samples reports how many samples are stored for a size bin and policy.
func (l *Learner) Samples(bin task.SizeBin, p samplePolicy) int {
	return len(l.buckets[binKey{bin: bin, policy: p}])
}

// match selects the samples relevant to a query, applying the enabled
// factors with hierarchical fallback: exact (waves, acc) match first, then
// relax accuracy, then relax waves, then everything in the size bin. This
// fallback is what makes Best-1/Best-2 ablations a strict subset of the full
// design: a disabled factor simply never filters.
func (l *Learner) match(bin task.SizeBin, p samplePolicy, waves, estAcc float64) []sample {
	all := l.buckets[binKey{bin: bin, policy: p}]
	if len(all) == 0 {
		return nil
	}
	wb, ab := wavesBucket(waves), accBucket(estAcc)
	type filter func(s sample) bool
	var stages []filter
	switch {
	case l.factors.Utilization && l.factors.Accuracy:
		stages = []filter{
			func(s sample) bool { return s.waves == wb && s.acc == ab },
			func(s sample) bool { return s.waves == wb },
			func(s sample) bool { return s.acc == ab },
		}
	case l.factors.Utilization:
		stages = []filter{func(s sample) bool { return s.waves == wb }}
	case l.factors.Accuracy:
		stages = []filter{func(s sample) bool { return s.acc == ab }}
	}
	for _, f := range stages {
		var out []sample
		for _, s := range all {
			if f(s) {
				out = append(out, s)
			}
		}
		if len(out) >= l.minSamples {
			return out
		}
	}
	return all
}

// Aggregate returns the average completion curve of the matched samples: at
// a grid of times spanning the samples, the mean completed fraction. The
// result is cached until the next Record. ok is false with no samples.
func (l *Learner) Aggregate(p samplePolicy, bin task.SizeBin, waves, estAcc float64) (*Curve, bool) {
	key := aggKey{bin: bin, policy: p, waves: wavesBucket(waves), acc: accBucket(estAcc)}
	if e, hit := l.aggCache[key]; hit && e.version == l.records {
		return e.curve, e.curve != nil
	}
	ms := l.match(bin, p, waves, estAcc)
	var c *Curve
	if len(ms) > 0 {
		maxT := 0.0
		for _, s := range ms {
			if t, _ := s.curve.Final(); t > maxT {
				maxT = t
			}
		}
		if maxT > 0 {
			const gridN = 48
			c = &Curve{}
			for i := 1; i <= gridN; i++ {
				t := maxT * float64(i) / gridN
				sum := 0.0
				for _, s := range ms {
					sum += s.curve.FracAt(t)
				}
				c.Add(t, sum/float64(len(ms)))
			}
		}
	}
	l.aggCache[key] = aggEntry{version: l.records, curve: c}
	return c, c != nil
}
