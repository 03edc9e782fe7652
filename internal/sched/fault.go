// Fault injection: the scheduler-side half of internal/fault. The fault
// package owns WHAT happens (the deterministic schedule of crashes, rack
// storms and interference bursts and their pre-seeded random draws); this
// file owns HOW it lands in the simulation — as AtLast simulator events
// that revoke cluster capacity, kill running copies (Lost, distinct from
// Preempted: the scheduler chose neither the victim nor the moment), and
// perturb launch-time slowdowns. A lost copy leaves through removeCopies,
// the exit every killed copy takes, and its task respeculates through the
// same dispatch path fair-share preemption already exercises.
//
// Determinism and zero cost:
//
//   - Faults are AtLast events, so a fault at time t observes every arrival
//     and completion of that instant first and the benign event classes the
//     goldens pin are untouched. Each channel is self-paced from its own
//     RNG substream (the draw for occurrence n+1 happens when occurrence n
//     is armed), so channel interleaving never shifts a draw.
//   - A disabled schedule builds no injector: the only additions to the hot
//     path are nil checks, which the perfwall allocs/event gates double-pin.
//   - Recurring channels go DORMANT when the simulation is idle (no active
//     jobs, no pending arrival): the pending occurrence fires, applies
//     nothing, and does not rearm — otherwise an infinite fault stream
//     would keep the event queue alive forever. admit rearms on the next
//     admission. Paired end events (restore, storm end, burst end) always
//     fire and apply, so revoked capacity is always returned and a trailing
//     restore may legitimately extend the makespan.
package sched

import (
	"github.com/approx-analytics/grass/internal/fault"
	"github.com/approx-analytics/grass/internal/simevent"
)

// FaultStats counts applied fault events cluster-wide over one run.
type FaultStats struct {
	// Crashes and Restores count machine departures and returns; a crash
	// drawn against an already-down machine applies nothing and counts
	// nowhere.
	Crashes, Restores uint64
	// Storms counts rack slowdown storms; Bursts background-load bursts.
	Storms, Bursts uint64
	// LostCopies counts running copies killed by crashes (JobResult.Lost,
	// summed); InterferedSlots counts slots seized by bursts.
	LostCopies, InterferedSlots uint64
}

// faultInjector wires one fault.Stream into a running simulator.
type faultInjector struct {
	s      *Simulator
	stream *fault.Stream
	// held counts interference-occupied slots per machine, so burst ends
	// release exactly what their burst still holds (a crash in between
	// parks the held slots and zeroes the count).
	held []int32
	// stormDepth counts active storms per rack: overlapping storms extend
	// the factor's hold, they do not compound it.
	stormDepth []int32
	cfg        fault.Config
	stats      FaultStats
	crashArmed bool
	stormArmed bool
	intfArmed  bool
}

func newFaultInjector(s *Simulator, cfg fault.Config) *faultInjector {
	machines := s.cl.Machines()
	stream := fault.NewStream(cfg, s.cfg.Seed, machines)
	return &faultInjector{
		s:          s,
		stream:     stream,
		cfg:        cfg,
		held:       make([]int32, machines),
		stormDepth: make([]int32, stream.Racks()),
	}
}

// idleForFaults reports whether a recurring channel should go dormant: no
// job is active and no arrival is queued, so nothing can be perturbed and
// rearming would keep the event queue alive forever. Admission keeps
// exactly one arrival queued until the source drains, and pendingJob is
// non-nil exactly while it is.
func (s *Simulator) idleForFaults() bool {
	return len(s.active) == 0 && s.pendingJob == nil
}

// wake arms every enabled channel that is not already armed. Called on
// each admission; channels stay armed across busy periods and only rearm
// after going dormant.
func (f *faultInjector) wake() {
	now := f.s.eng.Now()
	if f.cfg.CrashEvery > 0 && !f.crashArmed {
		f.crashArmed = true
		f.armCrash(now)
	}
	if f.cfg.StormEvery > 0 && !f.stormArmed {
		f.stormArmed = true
		f.armStorm(now)
	}
	if f.cfg.InterfereEvery > 0 && !f.intfArmed {
		f.intfArmed = true
		f.armInterfere(now)
	}
}

func (f *faultInjector) armCrash(now float64) {
	t, m := f.stream.NextCrash(now)
	f.s.eng.AtLast(t, func(*simevent.Engine) { f.onCrash(m) })
}

func (f *faultInjector) armStorm(now float64) {
	t, r := f.stream.NextStorm(now)
	f.s.eng.AtLast(t, func(*simevent.Engine) { f.onStorm(r) })
}

func (f *faultInjector) armInterfere(now float64) {
	t, m := f.stream.NextInterfere(now)
	f.s.eng.AtLast(t, func(*simevent.Engine) { f.onInterfere(m) })
}

// onCrash takes machine m out of the cluster: its free slots leave the
// pool, interference holds park, and every running copy on it is killed
// as Lost — the tasks return to the unscheduled pool and respeculate
// through the ordinary dispatch path. The restore is scheduled
// unconditionally, so capacity always comes back.
func (f *faultInjector) onCrash(m int) {
	s := f.s
	if s.idleForFaults() {
		f.crashArmed = false
		return
	}
	f.armCrash(s.eng.Now())
	if s.cl.Down(m) {
		return // crash drawn against an already-down machine: no-op
	}
	s.noteUtil()
	s.cl.Crash(m)
	f.stats.Crashes++
	if f.held[m] > 0 {
		// The burst's slots park with the machine; its end event will find
		// nothing held.
		for i := int32(0); i < f.held[m]; i++ {
			s.cl.Release(m)
		}
		f.held[m] = 0
	}
	s.killCopiesOn(m)
	s.eng.AtLast(s.eng.Now()+f.cfg.CrashDowntime, func(*simevent.Engine) { f.onRestore(m) })
	s.dispatch()
}

// onRestore returns a crashed machine's slots to the pool.
func (f *faultInjector) onRestore(m int) {
	s := f.s
	s.noteUtil()
	if s.cl.Restore(m) {
		f.stats.Restores++
	}
	s.dispatch()
}

// onStorm slows every machine of one rack by the configured factor for the
// storm's duration. Only copies LAUNCHED during the storm are slowed —
// launch-time semantics, the same contract as static heterogeneity — so
// running copies keep their durations and determinism needs no mid-run
// event rescheduling.
func (f *faultInjector) onStorm(rack int) {
	s := f.s
	if s.idleForFaults() {
		f.stormArmed = false
		return
	}
	f.armStorm(s.eng.Now())
	f.stats.Storms++
	if f.stormDepth[rack]++; f.stormDepth[rack] == 1 {
		lo, hi := f.stream.RackRange(rack)
		for id := lo; id < hi; id++ {
			s.cl.SetFactor(id, f.cfg.StormFactor)
		}
	}
	s.eng.AtLast(s.eng.Now()+f.cfg.StormDuration, func(*simevent.Engine) { f.onStormEnd(rack) })
}

func (f *faultInjector) onStormEnd(rack int) {
	if f.stormDepth[rack]--; f.stormDepth[rack] == 0 {
		lo, hi := f.stream.RackRange(rack)
		for id := lo; id < hi; id++ {
			f.s.cl.SetFactor(id, 1)
		}
	}
}

// onInterfere seizes up to InterfereSlots FREE slots on one machine —
// background load the scheduler cannot see, only feel. Running copies are
// never touched (interference contends, it does not kill), so a saturated
// machine shrugs the burst off.
func (f *faultInjector) onInterfere(m int) {
	s := f.s
	if s.idleForFaults() {
		f.intfArmed = false
		return
	}
	f.armInterfere(s.eng.Now())
	f.stats.Bursts++
	n := int32(0)
	for int(n) < f.cfg.InterfereSlots && s.cl.AcquireOn(m) {
		if n == 0 {
			s.noteUtil()
		}
		n++
	}
	if n == 0 {
		return
	}
	f.held[m] += n
	f.stats.InterferedSlots += uint64(n)
	s.eng.AtLast(s.eng.Now()+f.cfg.InterfereDuration, func(*simevent.Engine) { f.onInterfereEnd(m, n) })
}

func (f *faultInjector) onInterfereEnd(m int, n int32) {
	s := f.s
	// A crash in between parked (and zeroed) this machine's holds; release
	// only what the burst still owns.
	if n > f.held[m] {
		n = f.held[m]
	}
	if n == 0 {
		return
	}
	s.noteUtil()
	f.held[m] -= n
	for i := int32(0); i < n; i++ {
		s.cl.Release(m)
	}
	s.dispatch()
}

// killCopiesOn kills every running copy on machine m across all active
// jobs through removeCopies (whose release parks the slot: the machine is
// down), recording each as Lost: the fault schedule, not the fair-share
// policy, chose it.
func (s *Simulator) killCopiesOn(m int) {
	onM := func(c *copyRun) bool { return c.machineID == m }
	for _, js := range s.active {
		if js.phase == nil {
			continue
		}
		for i := 0; i < js.phase.n; i++ {
			n := s.removeCopies(js, i, onM)
			js.res.Lost += n
			s.flt.stats.LostCopies += uint64(n)
		}
	}
}
