// Package fault defines deterministic, seed-derived fault schedules for the
// simulator: machine crash/restart, correlated rack-scoped slowdown storms,
// and background-load interference bursts. A schedule is pure configuration
// plus a Stream of pre-seeded random draws — the scheduler's injector turns
// the draws into simulator events, so the same (workload seed, fault seed)
// pair replays the identical fault timeline on every run, for any worker
// count, and a zero Config costs nothing.
//
// Each fault channel (crash, storm, interference) draws from its own
// dist.SubSeed substream and is self-paced: the next occurrence is drawn
// when the previous one is armed, never when it fires, so the interleaving
// of channels cannot perturb any channel's draw sequence. The fault seed
// itself derives from the simulation seed through a reserved SubSeed tag
// unless pinned explicitly, keeping fault randomness disjoint from the
// scheduler's placement stream and keyed straggler draws by construction.
package fault

import (
	"fmt"
	"math"

	"github.com/approx-analytics/grass/internal/dist"
)

// seedTag is the reserved dist.SubSeed tag that derives a fault seed from
// the simulation seed when Config.Seed is zero. It sits far above the tags
// the scheduler uses for partitions (part index) and learners, so fault
// streams never collide with existing substreams.
const seedTag = 1 << 30

// DrawTag is the reserved dist.SubSeed tag that derives the key seed of the
// scheduler's keyed straggler draws (copy duration factors and estimator
// biases) from the simulation seed. It sits next to seedTag, above every
// partition and learner tag, so the two derived seeds never collide.
const DrawTag = seedTag + 1

// Config describes one deterministic fault schedule. The zero value means
// "no faults" and is free: Enabled reports false and the scheduler builds
// no injector. Inter-fault gaps are exponential with the configured mean
// (memoryless, like real failure processes); durations are fixed so a
// scenario's intensity is a two-parameter knob (how often × how long).
type Config struct {
	// Seed pins the fault randomness. Zero derives it from the simulation
	// seed, so default runs stay reproducible without extra flags while
	// -fault-seed can vary the fault timeline against a fixed workload.
	Seed int64

	// RackSize groups machines [0..R-1], [R..2R-1], ... into racks for
	// correlated slowdown storms. Required (>0) when StormEvery > 0.
	RackSize int

	// CrashEvery is the mean sim-time gap between machine crashes (0
	// disables crashes). Each crash picks a uniform machine; if it is
	// already down the crash is a no-op but the draw still advances.
	CrashEvery float64
	// CrashDowntime is how long a crashed machine stays gone before its
	// slots rejoin the cluster.
	CrashDowntime float64

	// StormEvery is the mean gap between rack slowdown storms (0 disables).
	// A storm multiplies every machine in a uniform rack by StormFactor for
	// StormDuration; overlapping storms on one rack extend, not compound.
	StormEvery    float64
	StormDuration float64
	StormFactor   float64

	// InterfereEvery is the mean gap between background-load bursts (0
	// disables). A burst occupies up to InterfereSlots free slots on a
	// uniform machine for InterfereDuration — external load the scheduler
	// cannot see, only feel.
	InterfereEvery    float64
	InterfereDuration float64
	InterfereSlots    int
}

// Enabled reports whether the schedule injects any faults at all.
func (c Config) Enabled() bool {
	return c.CrashEvery > 0 || c.StormEvery > 0 || c.InterfereEvery > 0
}

// finite rejects NaN and ±Inf — comparisons like "<= 0" silently accept
// NaN, the validation gap this package must not reintroduce.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Validate checks the schedule. A disabled channel's other parameters are
// ignored, so partial configs (e.g. crashes only) stay terse.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"CrashEvery", c.CrashEvery},
		{"CrashDowntime", c.CrashDowntime},
		{"StormEvery", c.StormEvery},
		{"StormDuration", c.StormDuration},
		{"StormFactor", c.StormFactor},
		{"InterfereEvery", c.InterfereEvery},
		{"InterfereDuration", c.InterfereDuration},
	} {
		if !finite(f.v) || f.v < 0 {
			return fmt.Errorf("fault: %s = %v, want finite and >= 0", f.name, f.v)
		}
	}
	if c.CrashEvery > 0 && c.CrashDowntime <= 0 {
		return fmt.Errorf("fault: crashes enabled with CrashDowntime %v", c.CrashDowntime)
	}
	if c.StormEvery > 0 {
		if c.StormDuration <= 0 {
			return fmt.Errorf("fault: storms enabled with StormDuration %v", c.StormDuration)
		}
		if c.StormFactor <= 0 {
			return fmt.Errorf("fault: storms enabled with StormFactor %v", c.StormFactor)
		}
		if c.RackSize <= 0 {
			return fmt.Errorf("fault: storms enabled with RackSize %d", c.RackSize)
		}
	}
	if c.InterfereEvery > 0 {
		if c.InterfereDuration <= 0 {
			return fmt.Errorf("fault: interference enabled with InterfereDuration %v", c.InterfereDuration)
		}
		if c.InterfereSlots <= 0 {
			return fmt.Errorf("fault: interference enabled with InterfereSlots %d", c.InterfereSlots)
		}
	}
	return nil
}

// Shard derives the fault schedule for one partition of a sharded run. The
// partition owns partMachines of totalMachines machines, so each channel's
// cluster-wide rate scales down proportionally (the mean gap scales up by
// total/part) and the partition draws from its own seed substream — the
// same scheme sched.ShardConfig applies to the workload seed. parts == 1
// returns the config unchanged, preserving "one partition IS the plain
// engine" byte-for-byte.
func (c Config) Shard(part, parts, partMachines, totalMachines int) Config {
	if parts <= 1 || !c.Enabled() {
		return c
	}
	scale := float64(totalMachines) / float64(partMachines)
	if c.CrashEvery > 0 {
		c.CrashEvery *= scale
	}
	if c.StormEvery > 0 {
		c.StormEvery *= scale
	}
	if c.InterfereEvery > 0 {
		c.InterfereEvery *= scale
	}
	if c.Seed != 0 {
		c.Seed = dist.SubSeed(c.Seed, part)
	}
	return c
}

// Stream is the pre-seeded source of fault draws for one simulation (or one
// partition of one). Each channel owns an independent RNG, so draws on one
// channel never shift another's timeline.
type Stream struct {
	crash    *dist.RNG
	storm    *dist.RNG
	intf     *dist.RNG
	cfg      Config
	machines int
	racks    int
}

// NewStream builds the draw source for a cluster of the given size. simSeed
// and part feed the derived fault seed when cfg.Seed is zero: the reserved
// tag splits fault randomness off the simulation seed, and the partition
// index splits partitions off each other (mirroring sched.ShardSeed, which
// has already rewritten simSeed per partition — so part is folded in only
// through that rewritten seed, keeping parts == 1 identical to unsharded).
func NewStream(cfg Config, simSeed int64, machines int) *Stream {
	base := cfg.Seed
	if base == 0 {
		base = dist.SubSeed(simSeed, seedTag)
	}
	racks := 0
	if cfg.RackSize > 0 {
		racks = (machines + cfg.RackSize - 1) / cfg.RackSize
	}
	return &Stream{
		crash:    dist.NewRNG(dist.SubSeed(base, 1)),
		storm:    dist.NewRNG(dist.SubSeed(base, 2)),
		intf:     dist.NewRNG(dist.SubSeed(base, 3)),
		cfg:      cfg,
		machines: machines,
		racks:    racks,
	}
}

// Racks returns the number of racks the stream's cluster divides into
// (zero when storms are disabled or RackSize is unset).
func (s *Stream) Racks() int { return s.racks }

// RackRange returns the half-open machine ID range [lo, hi) of a rack.
func (s *Stream) RackRange(rack int) (lo, hi int) {
	lo = rack * s.cfg.RackSize
	hi = lo + s.cfg.RackSize
	if hi > s.machines {
		hi = s.machines
	}
	return lo, hi
}

// NextCrash draws the next crash: its absolute time after now and the
// target machine.
func (s *Stream) NextCrash(now float64) (t float64, machine int) {
	gap := dist.Exponential{Mu: s.cfg.CrashEvery}.Sample(s.crash)
	return now + gap, s.crash.Intn(s.machines)
}

// NextStorm draws the next rack slowdown storm: its absolute time and the
// target rack.
func (s *Stream) NextStorm(now float64) (t float64, rack int) {
	gap := dist.Exponential{Mu: s.cfg.StormEvery}.Sample(s.storm)
	return now + gap, s.storm.Intn(s.racks)
}

// NextInterfere draws the next background-load burst: its absolute time
// and the target machine.
func (s *Stream) NextInterfere(now float64) (t float64, machine int) {
	gap := dist.Exponential{Mu: s.cfg.InterfereEvery}.Sample(s.intf)
	return now + gap, s.intf.Intn(s.machines)
}
