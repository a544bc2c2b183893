// Package queuemodel implements the paper's Section IV analysis of
// Leashed-SGD thread dynamics: the fluid model of threads entering and
// leaving the LAU-SPC retry loop.
//
// With m workers, gradient-computation time Tc and update time Tu, the
// number n_t of threads inside the retry loop evolves as
//
//	n_{t+1} = n_t + (m − n_t)/Tc − n_t/Tu            (paper eq. 4)
//
// whose closed form (Theorem 3) is
//
//	n_t = (1 − (1 − 1/Tc − 1/Tu)^t) / (1 + Tc/Tu) · m
//	    + (1 − 1/Tc − 1/Tu)^t · n_0                   (paper eq. 5)
//
// with the stable fixed point n* = m / (Tc/Tu + 1) (Corollary 3.1). The
// persistence bound adds a departure-rate gain γ > 0 moving the fixed point
// to n*_γ = m / ((Tc/Tu)(1+γ) + 1) (Corollary 3.2) — the contention
// regulation mechanism. E[τ^s] ≈ n*_γ estimates the scheduling component of
// staleness.
//
// Map of the API onto the paper's statements:
//
//   - Step — one iterate of the occupancy recursion, eq. (4), with the
//     γ-augmented departure rate of eq. (6);
//   - NT — the closed-form n_t of Theorem 3 (eq. 5);
//   - FixedPoint — the stable fixed point n* of Corollary 3.1, and its
//     γ-regulated form n*_γ of Corollary 3.2 when Gamma > 0;
//   - Balance — Corollary 3.2's observation that the occupancy fraction
//     n*/m depends only on the Tu/Tc ratio;
//   - ExpectedTauS — the Sec. IV-2 estimate E[τ^s] ≈ n*_γ of the
//     scheduling-staleness component;
//   - Trajectory — the sampled path of eq. (4), for plots and tests;
//   - Simulate — a discrete-event simulator of the same m-worker system, so
//     the closed form can be validated against sampled dynamics.
package queuemodel

import (
	"fmt"
	"math"

	"leashedsgd/internal/rng"
)

// Params describes the modeled system.
type Params struct {
	M     int     // worker count m
	Tc    float64 // gradient computation time (arbitrary unit)
	Tu    float64 // update (retry-loop pass) time, same unit
	Gamma float64 // persistence departure gain γ ≥ 0 (0 = no bound)
}

// Validate reports the first invalid field.
func (p Params) Validate() error {
	if p.M <= 0 {
		return fmt.Errorf("queuemodel: m must be positive, got %d", p.M)
	}
	if p.Tc <= 0 || p.Tu <= 0 {
		return fmt.Errorf("queuemodel: Tc and Tu must be positive, got %v, %v", p.Tc, p.Tu)
	}
	if 1/p.Tc+1/p.Tu >= 2 {
		// |1 − 1/Tc − 1/Tu| ≥ 1 makes the linear recursion oscillate or
		// diverge; the fluid model is meaningful only for rates < 1 per
		// time step (the paper implicitly measures Tc, Tu in steps ≥ 1).
		return fmt.Errorf("queuemodel: 1/Tc + 1/Tu = %v ≥ 2 is outside the stable regime", 1/p.Tc+1/p.Tu)
	}
	if p.Gamma < 0 {
		return fmt.Errorf("queuemodel: gamma must be non-negative, got %v", p.Gamma)
	}
	return nil
}

// Step advances eq. (4) one time unit from n, using the γ-augmented
// departure rate of eq. (6): n' = n + (m−n)/Tc − n(1+γ)/Tu.
func (p Params) Step(n float64) float64 {
	return n + (float64(p.M)-n)/p.Tc - n*(1+p.Gamma)/p.Tu
}

// NT returns the closed-form n_t of Theorem 3 for initial occupancy n0.
// Theorem 3 is stated for γ = 0; for γ > 0 the same derivation applies with
// the effective update rate (1+γ)/Tu.
func (p Params) NT(t int, n0 float64) float64 {
	rate := 1/p.Tc + (1+p.Gamma)/p.Tu
	decay := math.Pow(1-rate, float64(t))
	return (1-decay)*p.FixedPoint() + decay*n0
}

// FixedPoint returns n*_γ = m / ((Tc/Tu)(1+γ) + 1) (Corollaries 3.1 / 3.2;
// γ = 0 gives the unregulated n*).
func (p Params) FixedPoint() float64 {
	return float64(p.M) / ((p.Tc/p.Tu)*(1+p.Gamma) + 1)
}

// Balance returns the fixed-point retry-loop occupancy fraction
// n*/m = Tu / (Tu + Tc(1+γ)); the paper notes it depends only on Tu/Tc.
func (p Params) Balance() float64 {
	return p.FixedPoint() / float64(p.M)
}

// ExpectedTauS returns the model's estimate of the scheduling staleness
// component, E[τ^s] ≈ n*_γ (Sec. IV-2).
func (p Params) ExpectedTauS() float64 {
	return p.FixedPoint()
}

// Trajectory iterates Step t times from n0 and returns the sampled path
// (length t+1, starting at n0).
func (p Params) Trajectory(t int, n0 float64) []float64 {
	out := make([]float64, t+1)
	out[0] = n0
	n := n0
	for i := 1; i <= t; i++ {
		n = p.Step(n)
		out[i] = n
	}
	return out
}

// SimResult summarizes a discrete-event simulation run.
type SimResult struct {
	MeanOccupancy float64 // time-averaged number of threads in the retry loop
	Published     int64   // successful publishes
	Dropped       int64   // gradients abandoned by the persistence bound
	// FailedCAS counts the retry-loop passes lost to a concurrent publisher
	// (Contention mode only). FailedCAS/Published is the simulated
	// failed-per-publish rate, the quantity a live run reports as
	// Result.FailedPerPublish.
	FailedCAS int64
	MeanTauS  float64 // mean publishes between retry-loop entry and own publish
}

// SimOptions configures the discrete-event simulator.
type SimOptions struct {
	// Tp is the persistence bound: abandon a gradient after Tp failed CAS
	// attempts. Negative = unbounded.
	Tp int
	// Contention, when true, models CAS losses: a retry-loop pass that
	// completes while other occupants are present loses its CAS with
	// probability (occ−1)/occ and must run another pass. When false the
	// simulator matches the fluid model's assumption exactly (departure
	// rate n/Tu — every completed pass publishes), which is the mode used
	// to validate Theorem 3 / Corollary 3.1.
	Contention bool
	Steps      int
	Seed       uint64
}

// Simulate runs a discrete-event simulation of m workers alternating between
// an exponential(Tc) "gradient" phase and the LAU-SPC retry loop with
// exponential(Tu) passes. It measures the time-averaged loop occupancy and
// the scheduling-staleness distribution so tests can validate the Sec. IV
// results.
func Simulate(p Params, opts SimOptions) SimResult {
	return simulate(p, opts.Tp, opts.Contention, opts.Steps, opts.Seed)
}

func simulate(p Params, tp int, contention bool, steps int, seed uint64) SimResult {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	r := rng.New(seed)
	expSample := func(mean float64) float64 {
		u := r.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		return -mean * math.Log(1-u)
	}

	type worker struct {
		inLoop    bool
		nextEvent float64 // absolute time of phase completion
		fails     int
		entrySeq  int64 // publish count when the loop was entered
	}
	workers := make([]worker, p.M)
	now := 0.0
	for i := range workers {
		workers[i].nextEvent = expSample(p.Tc)
	}
	var published, dropped, failedCAS int64
	var tauSum float64
	var occupancyIntegral float64
	lastT := 0.0

	for step := 0; step < steps; step++ {
		// Next event = earliest worker completion.
		best := 0
		for i := 1; i < p.M; i++ {
			if workers[i].nextEvent < workers[best].nextEvent {
				best = i
			}
		}
		w := &workers[best]
		occ := 0
		for i := range workers {
			if workers[i].inLoop {
				occ++
			}
		}
		occupancyIntegral += float64(occ) * (w.nextEvent - lastT)
		lastT = w.nextEvent
		now = w.nextEvent

		if !w.inLoop {
			// Gradient finished: enter the retry loop.
			w.inLoop = true
			w.fails = 0
			w.entrySeq = published
			w.nextEvent = now + expSample(p.Tu)
			continue
		}
		// Retry-loop pass finished: the pass publishes unless contention
		// modeling makes it lose the CAS to a concurrent occupant.
		contended := contention && occ > 1 && r.Float64() < float64(occ-1)/float64(occ)
		if contended {
			// Lost the CAS to a concurrent publisher.
			failedCAS++
			w.fails++
			if tp >= 0 && w.fails > tp {
				dropped++
				w.inLoop = false
				w.nextEvent = now + expSample(p.Tc)
				continue
			}
			w.nextEvent = now + expSample(p.Tu)
			continue
		}
		published++
		tauSum += float64(published - 1 - w.entrySeq)
		w.inLoop = false
		w.nextEvent = now + expSample(p.Tc)
	}
	res := SimResult{Published: published, Dropped: dropped, FailedCAS: failedCAS}
	if lastT > 0 {
		res.MeanOccupancy = occupancyIntegral / lastT
	}
	if published > 0 {
		res.MeanTauS = tauSum / float64(published)
	}
	_ = now
	return res
}
