// Package model implements Appendix A's analytic model of speculation: the
// proactive-speculation service rate µ(t) of Eq. (1) with Theorem 1's
// optimal copy count k(x(t)), and the reactive ω-policy service rate of
// Eq. (3) whose numeric optimization produces Figure 4 and Guideline 3 (GS
// is near-optimal below two waves, RAS above).
//
// The model studies one job with T tasks on S slots (W = T/S waves), task
// sizes i.i.d. Pareto(xm, β). A reactive policy waits until a task has run
// ω time before launching one speculative copy; GS and RAS correspond to
//
//	ω_GS:  E[τ] = E[τ−ω | τ>ω]   ⇒  ω = β·xm
//	ω_RAS: 2E[τ] = E[τ−ω | τ>ω]  ⇒  ω = 2β·xm
//
// (for Pareto, E[τ−ω|τ>ω] = ω/(β−1) when ω ≥ xm).
package model

import (
	"fmt"
	"math"

	"github.com/approx-analytics/grass/internal/dist"
)

// GSOmega returns the waiting threshold implied by GS's criterion
// t_new < t_rem at equality: E[τ] = E[τ−ω|τ>ω] ⇒ ω = β·xm.
func GSOmega(p dist.Pareto) float64 { return p.Beta * p.Xm }

// RASOmega returns the waiting threshold implied by RAS's resource-saving
// criterion at equality (c=1): 2·E[τ] = E[τ−ω|τ>ω] ⇒ ω = 2β·xm.
func RASOmega(p dist.Pareto) float64 { return 2 * p.Beta * p.Xm }

// Sigma is Theorem 1's early-wave copy count σ = max(2/β, 1): two copies
// pay off only for infinite-variance tails (β < 2).
func Sigma(beta float64) float64 {
	if s := 2 / beta; s > 1 {
		return s
	}
	return 1
}

// Theorem1K returns the optimal proactive copy count k(x(t)) of Eq. (2).
// xfrac is x(t)/x, the remaining-work fraction; T and S the task and slot
// counts.
func Theorem1K(xfrac, T, S, beta float64) float64 {
	sigma := Sigma(beta)
	remTasks := xfrac * T
	switch {
	case remTasks*sigma >= S:
		return sigma
	case remTasks >= 1:
		return S / remTasks
	default:
		return S
	}
}

// minMeanCont is E[min(τ1..τk)] for (possibly non-integer) k iid Pareto
// draws: the minimum of k Pareto(xm, β) is Pareto(xm, kβ).
func minMeanCont(p dist.Pareto, k float64) float64 {
	kb := k * p.Beta
	if kb <= 1 {
		return math.Inf(1)
	}
	return p.Xm * kb / (kb - 1)
}

// MuProactive is Eq. (1): the work completion rate (in slot-work per unit
// time, cluster total S) for proactive k-way replication at remaining
// fraction xfrac. The first factor is the busy-slot count; the second the
// "blow-up factor" — useful work per slot-second when every task runs k
// copies and the first finisher wins.
func MuProactive(p dist.Pareto, xfrac, T, S, k float64) float64 {
	busy := xfrac * T * k
	if busy > S {
		busy = S
	}
	eff := p.Mean() / (k * minMeanCont(p, k))
	return busy * eff
}

// survival is P(τ > x) for the Pareto.
func survival(p dist.Pareto, x float64) float64 {
	if x <= p.Xm {
		return 1
	}
	return math.Pow(p.Xm/x, p.Beta)
}

// truncMean is E[τ | τ < ω]·P(τ < ω), the resource spent on tasks finishing
// before the speculation threshold. Zero when ω ≤ xm.
func truncMean(p dist.Pareto, omega float64) float64 {
	if omega <= p.Xm {
		return 0
	}
	b, xm := p.Beta, p.Xm
	if b == 1 {
		return xm * math.Log(omega/xm)
	}
	// ∫_{xm}^{ω} x f(x) dx = β·xm/(β−1) · (1 − (xm/ω)^{β−1})
	return b * xm / (b - 1) * (1 - math.Pow(xm/omega, b-1))
}

// minResidualMean is E[min(τ1−ω, τ2) | τ1 > ω]: after the original has run
// ω, a fresh copy races the original's residual; Z−ω in the paper's
// notation with Z = min(τ1, τ2+ω). Computed numerically:
// ∫0^∞ P(τ1 > ω+z | τ1 > ω) · P(τ2 > z) dz.
func minResidualMean(p dist.Pareto, omega float64) float64 {
	s1 := survival(p, omega)
	f := func(z float64) float64 {
		return survival(p, omega+z) / s1 * survival(p, z)
	}
	// Substitute z = u/(1−u) to integrate over u ∈ [0, 1).
	g := func(u float64) float64 {
		om := 1 - u
		z := u / om
		return f(z) / (om * om)
	}
	return simpson(g, 0, 1-1e-9, 4000)
}

// simpson is composite Simpson integration with n (even) intervals.
func simpson(f func(float64) float64, a, b float64, n int) float64 {
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}

// Reactive models one job under an ω-threshold reactive speculation policy.
type Reactive struct {
	Tau dist.Pareto
	T   float64 // tasks
	S   float64 // slots
}

// Validate checks the model parameters.
func (r Reactive) Validate() error {
	if r.Tau.Xm <= 0 || r.Tau.Beta <= 1 {
		return fmt.Errorf("model: need Pareto xm>0 and beta>1 (finite mean), got xm=%v beta=%v", r.Tau.Xm, r.Tau.Beta)
	}
	if r.T < 1 || r.S < 1 {
		return fmt.Errorf("model: need T>=1 and S>=1, got T=%v S=%v", r.T, r.S)
	}
	if r.T < r.S {
		return fmt.Errorf("model: W = T/S = %v < 1 wave", r.T/r.S)
	}
	return nil
}

// Waves returns W = T/S.
func (r Reactive) Waves() float64 { return r.T / r.S }

// earlyEfficiency is Eq. (3)'s first line without the capacity factor: the
// useful work delivered per slot-second under ω-threshold speculation.
func (r Reactive) earlyEfficiency(omega float64) float64 {
	p := r.Tau
	pMore := survival(p, omega)
	// truncMean already folds in P(τ<ω).
	denom := truncMean(p, omega) + (2*minResidualMean(p, omega)+omega)*pMore
	if denom <= 0 {
		return math.Inf(1)
	}
	return p.Mean() / denom
}

// Mu returns the work completion rate at remaining fraction xfrac under the
// reactive ω policy (Eq. 3): the early-wave branch while speculable tasks
// can fill the cluster, the optimal proactive branch (Theorem 1) for the
// final wave.
func (r Reactive) Mu(xfrac, omega float64) float64 {
	return r.mu(xfrac, omega, r.earlyEfficiency(omega))
}

// mu is Mu with the (expensive, ω-only) early-wave efficiency precomputed,
// so the response-time integration pays for the numeric integral once.
func (r Reactive) mu(xfrac, omega, earlyEff float64) float64 {
	p := r.Tau
	pMore := survival(p, omega)
	copiesPerTask := (1 - pMore) + 2*pMore
	if xfrac*r.T*copiesPerTask >= r.S {
		return r.S * earlyEff
	}
	k := Theorem1K(xfrac, r.T, r.S, p.Beta)
	return MuProactive(p, xfrac, r.T, r.S, k)
}

// ResponseTime numerically integrates dx/dt = −µ(x) from the full job until
// one task-equivalent of work remains, then adds the expected duration of a
// fully replicated final task. Units: slot-work per unit time (a task of
// mean size E[τ] occupies one slot for E[τ] time).
func (r Reactive) ResponseTime(omega float64) float64 {
	if err := r.Validate(); err != nil {
		panic(err)
	}
	x0 := r.T * r.Tau.Mean()
	x := x0
	t := 0.0
	earlyEff := r.earlyEfficiency(omega)
	// Integrate with steps small relative to both remaining work and the
	// current rate; the early branch is piecewise-constant in x so large
	// steps are safe until the final wave.
	floor := x0 / r.T // one mean-task of work
	for x > floor {
		mu := r.mu(x/x0, omega, earlyEff)
		if mu <= 0 {
			return math.Inf(1)
		}
		dx := x * 0.02
		if x-dx < floor {
			dx = x - floor
		}
		t += dx / mu
		x -= dx
	}
	// Final task: S-way replicated (Guideline 2 — use all slots).
	t += minMeanCont(r.Tau, r.S)
	return t
}

// Figure4Point is one point of Figure 4: the response time of the
// ω-threshold policy normalized by the best over the ω grid.
type Figure4Point struct {
	Omega float64
	Ratio float64
}

// Figure4Series computes one Figure 4 curve: the normalized response time
// across an ω grid for a job with the given wave count. omegaMax and points
// control the grid (the paper plots ω ∈ [0, 5]).
func Figure4Series(beta float64, waves float64, slots float64, omegaMax float64, points int) ([]Figure4Point, error) {
	r := Reactive{Tau: dist.Pareto{Xm: 1, Beta: beta}, T: waves * slots, S: slots}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	out := make([]Figure4Point, points)
	best := math.Inf(1)
	for i := 0; i < points; i++ {
		omega := omegaMax * float64(i) / float64(points-1)
		rt := r.ResponseTime(omega)
		out[i] = Figure4Point{Omega: omega, Ratio: rt}
		if rt < best {
			best = rt
		}
	}
	for i := range out {
		out[i].Ratio /= best
	}
	return out, nil
}
