package core

import (
	"fmt"
	"math"

	"github.com/approx-analytics/grass/internal/dist"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
)

// LearnerKind selects the GRASS learner implementation.
type LearnerKind uint8

const (
	// LearnerRing is the original per-bin ring-buffer curve store: bounded
	// memory and recency-weighted, but partition-scoped — at P>1 each
	// partition learns only from its own jobs.
	LearnerRing LearnerKind = iota
	// LearnerSketch is the mergeable streaming-sketch store: per factor
	// key, a grid of log-bucketed time-to-fraction histograms whose
	// bucket-wise merge is exact, so per-partition learners fold at the
	// sharded run's canonical merge step into precisely the state one
	// learner fed every sample would hold.
	LearnerSketch
)

// String names the kind the way ParseLearnerKind accepts it.
func (k LearnerKind) String() string {
	switch k {
	case LearnerRing:
		return "ring"
	case LearnerSketch:
		return "sketch"
	default:
		return fmt.Sprintf("LearnerKind(%d)", uint8(k))
	}
}

// ParseLearnerKind resolves a learner name: "ring" (or empty) and
// "sketch".
func ParseLearnerKind(s string) (LearnerKind, error) {
	switch s {
	case "", "ring":
		return LearnerRing, nil
	case "sketch":
		return LearnerSketch, nil
	default:
		return 0, fmt.Errorf("core: unknown learner %q (want ring or sketch)", s)
	}
}

// sketchGridN is the fraction grid the sketch learner summarizes
// completion curves on: per factor key and grid level g it keeps a
// histogram of "time a sample job took to reach fraction (g+1)/sketchGridN".
const sketchGridN = 32

// keyHists is one factor key's state: how many sample jobs were recorded
// under the key, and the per-grid-level time-to-fraction histograms.
type keyHists struct {
	n    uint64
	grid []*dist.Hist
}

// SketchLearner is the mergeable GRASS sample store. Where the ring
// Learner retains whole completion curves and averages the matched ones
// per query, the sketch learner folds every sample curve into streaming
// quantile histograms at Record time: per (size bin, policy, waves bucket,
// accuracy bucket) key, one log-bucketed histogram per fraction grid level
// holding the times sample jobs took to reach that fraction. The
// aggregate curve for a query is the per-level median of the matched
// histograms.
//
// The representation is chosen for one property: all state is integer
// bucket counts plus exact extremes, so Merge is loss-free, commutative
// and insertion-order-independent — two learners fed any partitioning of
// one sample multiset and merged are deeply equal to a single learner fed
// everything ("Sketch Disaggregation Across Time and Space" is the
// reference for splitting sketch state this way). That is what makes
// GRASS learning partition-invariant under sched.RunSharded: per-partition
// learners fold at the deterministic canonical merge step, and a seeded
// next epoch queries the combined cluster history instead of a
// partition-scoped slice. The trade against the ring store: no recency
// eviction (the histograms summarize the full history) and curve shapes
// quantized to the histograms' relative-error guarantee.
//
// A SketchLearner is not safe for concurrent use; the simulator is
// single-threaded and the sharded runner merges exported clones.
type SketchLearner struct {
	factors    FactorSet
	minSamples uint64
	keys       map[aggKey]*keyHists

	// base is an immutable seeded history layer (SetBase): queries
	// consult it alongside the learner's own keys, but Record, Merge and
	// Clone operate on the learner's own state only. Exports are
	// therefore DELTAS — a seeded partition never re-exports the seed, so
	// folding P seeded partitions (each holding the same base) cannot
	// count the seeded history P times.
	base *SketchLearner

	// records counts every sample folded in and pairRecords the samples
	// under each (size bin, policy) — Merge adds the source's counts, so a
	// merged learner's equal the single-learner equivalent's. An aggregate
	// reads only the keys under its pair, so the pair's count versions its
	// cached answers; SetBase clears the cache.
	records     uint64
	pairRecords map[binKey]uint64
	aggCache    map[aggKey]aggEntry
	scratch     *dist.Hist // reusable merge buffer for multi-key queries
	// bases counts SetBase calls; with records it versions the answers.
	bases uint64
}

// NewSketchLearner builds an empty mergeable learner conditioning on the
// given factors.
func NewSketchLearner(factors FactorSet) *SketchLearner {
	return &SketchLearner{
		factors:     factors,
		minSamples:  3,
		keys:        make(map[aggKey]*keyHists),
		pairRecords: make(map[binKey]uint64),
		aggCache:    make(map[aggKey]aggEntry),
	}
}

// newKeyHists allocates one key's full histogram grid eagerly: the key
// space is tiny (3 bins × 2 policies × 4 waves × 3 accuracy buckets) and
// an identical layout on every learner keeps merged state deeply equal to
// single-learner state regardless of which levels each partition touched.
func newKeyHists() *keyHists {
	k := &keyHists{grid: make([]*dist.Hist, sketchGridN)}
	for g := range k.grid {
		k.grid[g] = dist.NewHist(dist.DefaultHistAlpha)
	}
	return k
}

// Record implements LearnerStore: the sample curve is folded into the
// key's histogram grid — for each grid fraction, the time the curve takes
// to reach it (TimeToFrac extrapolates past a curve's recorded end, the
// same convention the ring learner's predictions use; a curve that
// completed nothing contributes to no level).
func (l *SketchLearner) Record(p samplePolicy, bin task.SizeBin, waves, estAcc float64, c *Curve) {
	if c == nil || c.Empty() {
		return
	}
	key := aggKey{bin: bin, policy: p, waves: wavesBucket(waves), acc: accBucket(estAcc)}
	kh := l.keys[key]
	if kh == nil {
		kh = newKeyHists()
		l.keys[key] = kh
	}
	kh.n++
	l.records++
	l.pairRecords[binKey{bin: bin, policy: p}]++
	for g := 0; g < sketchGridN; g++ {
		f := float64(g+1) / sketchGridN
		if t := c.TimeToFrac(f); !math.IsInf(t, 1) {
			kh.grid[g].Observe(t)
		}
	}
}

// SetBase installs previously merged state as an immutable read layer:
// every query from now on sees the seeded cluster history plus whatever
// this learner records itself, while exports (Clone) keep returning only
// the learner's own recordings. Installing a base invalidates cached
// aggregates; the base must not be mutated afterwards.
func (l *SketchLearner) SetBase(b *SketchLearner) {
	l.base = b
	l.bases++
	clear(l.aggCache)
}

// version implements LearnerStore: records and SetBase calls only grow, so
// their sum changes whenever an answer may have.
func (l *SketchLearner) version() uint64 { return l.records + l.bases }

// Samples implements LearnerStore: total sample jobs recorded for the
// size bin and policy, across every factor bucket — seeded base history
// included, since the count gates the same sparse-data fallbacks the
// queries take.
func (l *SketchLearner) Samples(bin task.SizeBin, p samplePolicy) int {
	total := 0
	if l.base != nil {
		total = l.base.Samples(bin, p)
	}
	for wb := uint8(0); wb < 4; wb++ {
		for ab := uint8(0); ab < 3; ab++ {
			if kh := l.keys[aggKey{bin: bin, policy: p, waves: wb, acc: ab}]; kh != nil {
				total += int(kh.n)
			}
		}
	}
	return total
}

// matched collects the keys under (bin, policy) passing the bucket filter,
// in canonical (waves, accuracy, base-before-own) order — map iteration
// never decides anything here.
func (l *SketchLearner) matched(bin task.SizeBin, p samplePolicy, accept func(wb, ab uint8) bool, out []*keyHists) []*keyHists {
	for wb := uint8(0); wb < 4; wb++ {
		for ab := uint8(0); ab < 3; ab++ {
			if !accept(wb, ab) {
				continue
			}
			key := aggKey{bin: bin, policy: p, waves: wb, acc: ab}
			if l.base != nil {
				if kh := l.base.keys[key]; kh != nil && kh.n > 0 {
					out = append(out, kh)
				}
			}
			if kh := l.keys[key]; kh != nil && kh.n > 0 {
				out = append(out, kh)
			}
		}
	}
	return out
}

// match applies the enabled factors with the same hierarchical fallback as
// the ring learner — exact (waves, acc), then relax accuracy, then relax
// waves, then everything in the size bin — accepting the first stage with
// at least minSamples sample jobs. A disabled factor never filters, so the
// Best-1/Best-2 ablations remain strict subsets of the full design.
func (l *SketchLearner) match(bin task.SizeBin, p samplePolicy, waves, estAcc float64) []*keyHists {
	wb, ab := wavesBucket(waves), accBucket(estAcc)
	var stages []func(kwb, kab uint8) bool
	switch {
	case l.factors.Utilization && l.factors.Accuracy:
		stages = []func(kwb, kab uint8) bool{
			func(kwb, kab uint8) bool { return kwb == wb && kab == ab },
			func(kwb, kab uint8) bool { return kwb == wb },
			func(kwb, kab uint8) bool { return kab == ab },
		}
	case l.factors.Utilization:
		stages = []func(kwb, kab uint8) bool{func(kwb, kab uint8) bool { return kwb == wb }}
	case l.factors.Accuracy:
		stages = []func(kwb, kab uint8) bool{func(kwb, kab uint8) bool { return kab == ab }}
	}
	var buf [24]*keyHists // the whole (waves, acc) bucket space, base + own
	for _, accept := range stages {
		ms := l.matched(bin, p, accept, buf[:0])
		var n uint64
		for _, kh := range ms {
			n += kh.n
		}
		if n >= l.minSamples {
			return ms
		}
	}
	return l.matched(bin, p, func(uint8, uint8) bool { return true }, buf[:0])
}

// Aggregate implements LearnerStore: the matched histograms merge level by
// level (exact bucket addition into a reusable scratch histogram) and the
// aggregate curve takes each level's median time-to-fraction. The result
// is cached until a Record or Merge adds a sample under the same size bin
// and policy, or SetBase. ok is false when no matched level holds a finite
// observation.
func (l *SketchLearner) Aggregate(p samplePolicy, bin task.SizeBin, waves, estAcc float64) (*Curve, bool) {
	key := aggKey{bin: bin, policy: p, waves: wavesBucket(waves), acc: accBucket(estAcc)}
	version := l.pairRecords[binKey{bin: bin, policy: p}]
	if e, hit := l.aggCache[key]; hit && e.version == version {
		return e.curve, e.curve != nil
	}
	ms := l.match(bin, p, waves, estAcc)
	var c *Curve
	for g := 0; g < sketchGridN; g++ {
		var h *dist.Hist
		switch len(ms) {
		case 0:
		case 1:
			h = ms[0].grid[g]
		default:
			if l.scratch == nil {
				l.scratch = dist.NewHist(dist.DefaultHistAlpha)
			}
			l.scratch.Reset()
			for _, kh := range ms {
				l.scratch.Merge(kh.grid[g])
			}
			h = l.scratch
		}
		if h == nil || h.Count() == 0 {
			continue
		}
		if c == nil {
			c = &Curve{}
		}
		c.Add(h.Quantile(0.5), float64(g+1)/sketchGridN)
	}
	l.aggCache[key] = aggEntry{version: version, curve: c}
	return c, c != nil
}

// Merge folds o into l: per-key sample counts and histogram buckets add
// exactly, so the merged learner is indistinguishable from one fed both
// learners' sample multisets — in any merge order. Merge operates on the
// learners' OWN state; seeded bases are not folded (exported states never
// carry one — Clone strips it — and the epoch driver accumulates deltas
// itself). Both learners must share the same factor configuration; Merge
// panics on mismatch (a programming error: partitions of one run always
// share the factory config).
func (l *SketchLearner) Merge(o *SketchLearner) {
	if o == nil {
		return
	}
	if o.factors != l.factors {
		panic("core: merging sketch learners with different factor sets")
	}
	for key, okh := range o.keys {
		kh := l.keys[key]
		if kh == nil {
			kh = newKeyHists()
			l.keys[key] = kh
		}
		kh.n += okh.n
		for g := range kh.grid {
			kh.grid[g].Merge(okh.grid[g])
		}
		l.pairRecords[binKey{bin: key.bin, policy: key.policy}] += okh.n
	}
	l.records += o.records
}

// Clone returns an independent deep copy of the learner's OWN recorded
// history, with query caches and any seeded base stripped: clones of
// learners that recorded the same sample multiset are deeply equal
// regardless of what was queried or seeded in between. This is the
// exported form the sharded merge folds — a delta, never the seed.
func (l *SketchLearner) Clone() *SketchLearner {
	c := NewSketchLearner(l.factors)
	c.minSamples = l.minSamples
	c.records = l.records
	for pair, n := range l.pairRecords {
		c.pairRecords[pair] = n
	}
	for key, kh := range l.keys {
		nk := &keyHists{n: kh.n, grid: make([]*dist.Hist, len(kh.grid))}
		for g := range kh.grid {
			nk.grid[g] = kh.grid[g].Clone()
		}
		c.keys[key] = nk
	}
	return c
}

// MergeLearned implements spec.LearnedState, so exported learner clones
// fold at sched.RunSharded's canonical merge step.
func (l *SketchLearner) MergeLearned(o spec.LearnedState) {
	if o == nil {
		return
	}
	ol, ok := o.(*SketchLearner)
	if !ok {
		panic(fmt.Sprintf("core: merging incompatible learned state %T", o))
	}
	l.Merge(ol)
}
