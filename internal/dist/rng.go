// Package dist provides the randomness substrate of the simulator: seeded
// splittable RNG streams, the heavy-tailed samplers the paper's straggler
// model is built from (Pareto tails with β ≈ 1.259, §2.2; lognormal data
// skew and machine heterogeneity, §6.1), and small summary-statistics
// helpers.
//
// Determinism is a design requirement, not an accident: every simulation
// run derives all of its randomness from its seed — Split carves
// independent child streams out of a NewRNG(seed) root without any global
// state, and Keyed derives a stream from a key alone. Identical seeds
// therefore replay identical traces, which is what makes the parallel
// experiment harness (internal/exp) bit-reproducible regardless of
// GOMAXPROCS or worker count. Across policies a seed also pairs the
// stragglers: the simulator keys each copy's duration factor and estimator
// biases by (job, phase, task, copy ordinal), so two policies that launch
// in different orders still draw the same luck for the same copy. Copy
// placement still follows event order, so the machine slowdown a copy
// lands on is not paired.
package dist

import (
	"math"
	"math/bits"
)

// RNG is a deterministic, splittable pseudo-random stream in the style of
// SplitMix64 / java.util.SplittableRandom: the state advances by a
// per-stream odd "gamma" increment and outputs are a bit-mixing hash of the
// state. It is cheap (two multiplies per draw), has 64-bit period per
// stream, and — unlike math/rand — supports deterministic Split without
// locks. Not safe for concurrent use; give each goroutine its own stream.
type RNG struct {
	state uint64
	gamma uint64 // odd
}

// goldenGamma is 2^64 / φ rounded to odd — SplitMix64's default increment.
const goldenGamma = 0x9e3779b97f4a7c15

// NewRNG returns a stream seeded with seed. Streams with different seeds
// are statistically independent; the same seed always replays the same
// stream.
func NewRNG(seed int64) *RNG {
	// Pre-mix the seed so small consecutive seeds (1, 2, 3 — the harness's
	// convention) start in well-separated states.
	return &RNG{state: mix64(uint64(seed)), gamma: goldenGamma}
}

// SubSeed derives the i-th child seed of seed — the seed-level analog of
// RNG.Split for components that take a seed rather than a stream (a
// partitioned simulation seeds each partition's simulator with
// SubSeed(seed, partition)). Children of one seed are statistically
// independent of each other and of NewRNG(seed)'s own stream: the child
// state is the parent's pre-mixed state advanced i+1 gamma steps and
// hashed, exactly how Split derives a child state — but skipping the
// parent's draw history, so the derivation is a pure function of
// (seed, i). SubSeed(seed, i) != seed for all practical i (that would
// need a mix64 fixed point).
func SubSeed(seed int64, i int) int64 {
	return int64(mix64(mix64(uint64(seed)) + (uint64(i)+1)*goldenGamma))
}

// Keyed returns the stream keyed by (seed, key...): each key component is
// folded into the pre-mixed seed by its own mix64 step, as SubSeed derives
// a child, so equal keys replay equal streams and keys that differ in any
// one component open with unrelated draws. Components are never
// bit-packed, so no component's range can alias another's. This is
// counter-based generation (Salmon et al., "Parallel random numbers: as
// easy as 1, 2, 3", SC'11, https://doi.org/10.1145/2063384.2063405): a
// draw is a function of its key, not of the draws before it. A caller that
// re-keys one long-lived RNG and passes its address draws without
// allocating.
func Keyed(seed int64, key ...uint64) RNG {
	z := mix64(uint64(seed))
	for _, k := range key {
		z = mix64(z + (k+1)*goldenGamma)
	}
	return RNG{state: z, gamma: goldenGamma}
}

// mix64 is SplitMix64's output hash (Stafford variant 13).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mixGamma derives a new odd gamma with enough bit transitions to be a good
// increment (the SplittableRandom recipe).
func mixGamma(z uint64) uint64 {
	z = (z ^ (z >> 33)) * 0xff51afd7ed558ccd
	z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53
	z = (z ^ (z >> 33)) | 1
	if bits.OnesCount64(z^(z>>1)) < 24 {
		z ^= 0xaaaaaaaaaaaaaaaa
	}
	return z
}

// next advances the state one step.
func (r *RNG) next() uint64 {
	r.state += r.gamma
	return r.state
}

// Uint64 returns the next 64 uniform random bits.
func (r *RNG) Uint64() uint64 { return mix64(r.next()) }

// Split carves an independent child stream out of r, advancing r by two
// draws. Parent and child sequences do not overlap in any realistic
// horizon, and the derivation is deterministic: the k-th Split of a given
// stream is always the same stream.
func (r *RNG) Split() *RNG {
	return &RNG{state: mix64(r.next()), gamma: mixGamma(r.next())}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Int63 returns a uniform non-negative int64.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("dist: Intn with non-positive n")
	}
	if n&(n-1) == 0 { // power of two: mask is exact
		return int(r.Int63() & int64(n-1))
	}
	// Rejection sampling to remove modulo bias (math/rand's Int63n scheme).
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return int(v % int64(n))
}

// Norm returns a standard normal draw (Box–Muller). Exactly two uniforms
// are consumed per call — no cached spare — so the stream position after k
// calls is independent of call-site history, keeping replay simple.
func (r *RNG) Norm() float64 {
	u1 := 1 - r.Float64() // (0, 1]: log stays finite
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
