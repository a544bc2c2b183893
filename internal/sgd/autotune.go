// Joint contention-adaptive autotuning of the two Leashed-SGD dials
// (Config.Tune): the shard count S and the persistence bound Tp.
//
// PR 1 made the shard count S a static knob and showed the failed-CAS rate
// falls ~1/S; PR 2 closed that loop with a contention-driven hill-climber on
// S alone. But the two dials interact — more shards lowers per-chain
// pressure, which shifts the optimal Tp — so this file generalizes the
// controller to a joint two-dimensional tuner that coordinate-descends over
// the (Tp, S) grid, one axis at a time, each axis driven by its own sampled
// signal:
//
//   - the S axis climbs on the windowed failed-CAS-per-publish rate exactly
//     as before (contention on the publish CAS: double under contention,
//     halve when uncontended);
//   - the Tp axis tightens (smaller Tp) on the windowed mixed-version read
//     rate — the fraction of leased reads whose seqlock validation saw some
//     chain republish mid-read. A high mixed rate means many concurrent
//     in-flight updates (the quantity Tp γ-regulates, Corollary 3.2), so the
//     leash is shortened; when reads are consistently clean the leash is
//     loosened back so fewer gradients are dropped.
//
// Both axes reuse the same move-evaluation hysteresis: a move must improve
// its own signal by an acceptance margin within one window or it is reverted
// and the threshold raised, so neither axis can thrash, and alternating only
// after the active axis goes quiet keeps each move's evaluation window free
// of the other axis's interference. Re-tuning Tp is a cheap atomic bound
// swap the workers pick up at their next iteration; re-sharding quiesces the
// workers at the epoch barrier exactly as in PR 2/3.

package sgd

import (
	"sync"
	"time"

	"leashedsgd/internal/metrics"
)

// Decision thresholds of the ladder's two axes. The model tuner aims its
// predicted (S, Tp) at autoShardClimbRate and autoTuneTightenRate, and the
// joint tuner's convergence test applies the same rules offline to find its
// reference knee.
const (
	// autoShardClimbRate is the windowed failed-CAS-per-publish rate above
	// which doubling the shard count is attractive.
	autoShardClimbRate = 0.05
	// autoShardDescendRate is the rate below which halving the shard count
	// is attractive (the contention a single chain would absorb anyway).
	autoShardDescendRate = 0.005
	// autoShardImprove is the acceptance bar for a climb: the post-move
	// rate must fall to ≤ this fraction of the pre-move rate (the ~1/S
	// prediction gives 0.5; 0.75 leaves room for noise), otherwise the
	// climb is reverted.
	autoShardImprove = 0.75

	// autoTuneTightenRate is the windowed mixed-version read rate above
	// which halving the persistence bound Tp is attractive: a large
	// fraction of leased reads overlapping a publish means many concurrent
	// in-flight updates, the pressure a shorter leash regulates away.
	autoTuneTightenRate = 0.2
	// autoTuneLoosenRate is the mixed-read rate below which growing Tp
	// back is attractive (reads are clean, so dropped gradients buy
	// nothing).
	autoTuneLoosenRate = 0.02
	// autoTuneImprove is the acceptance bar for a tighten move, in the
	// same role as autoShardImprove on the S axis.
	autoTuneImprove = 0.75

	// autoTuneWorsen scales the pre-move rate into the climb bar after a
	// rejected move: the signal must grow this much past the steady rate
	// before another attempt (anti-thrash hysteresis).
	autoTuneWorsen = 1.5
	// autoTuneMinSamples is the minimum number of per-window samples
	// (publishes for the S axis, leased reads for the Tp axis) a window
	// needs to carry a usable signal.
	autoTuneMinSamples = 64
	// autoTuneCool is how many observation windows are skipped after every
	// move, letting the new configuration warm up before it is judged.
	autoTuneCool = 1

	// tuneMaxShards and tuneMaxTp top the S ladder 1, 2, 4, …, 64 (clamped
	// to d) and the Tp ladder 16, 8, …, 1, 0; docs/tuning.md, "Fixed
	// values", says why each holds.
	tuneMaxShards = 64
	tuneMaxTp     = 16
)

// axisTuner is the pure decision core of one tuning axis: a hill-climber
// over a ladder of candidate values, driven by a windowed rate, with move
// evaluation and dynamic thresholds as hysteresis. "Up" the ladder is the
// direction expected to REDUCE the rate (more shards for the CAS rate, a
// tighter leash for the mixed-read rate). It is deliberately free of clocks
// and atomics so the controller policy is unit-testable by feeding synthetic
// windows.
type axisTuner struct {
	ladder []int // candidate values; pos+1 is one "doubling" up the axis
	pos    int

	wait    int     // observation windows left to skip (post-move cooldown)
	pending int     // pre-move position while a move awaits evaluation (-1 = none)
	preRate float64 // rate measured in the window that triggered the pending move
	upBar   float64 // dynamic climb threshold (raised after a rejected climb)
	downBar float64 // dynamic descent threshold (lowered after a rejected descent)
	improve float64 // acceptance bar: post-climb rate must be ≤ improve×preRate
}

func newAxisTuner(ladder []int, pos int, up, down, improve float64) *axisTuner {
	if pos < 0 {
		pos = 0
	}
	if pos > len(ladder)-1 {
		pos = len(ladder) - 1
	}
	return &axisTuner{
		ladder:  ladder,
		pos:     pos,
		pending: -1,
		upBar:   up,
		downBar: down,
		improve: improve,
	}
}

// value is the axis's current ladder value.
func (a *axisTuner) value() int { return a.ladder[a.pos] }

// idle reports whether the axis has no move in flight: not cooling down and
// not awaiting a move evaluation. The joint tuner hands the coordinate-
// descent token to the other axis only when the active one is idle, so every
// move is evaluated against a window the other axis did not disturb.
func (a *axisTuner) idle() bool { return a.wait == 0 && a.pending < 0 }

// observe feeds one window's rate (built from `samples` events) and returns
// the axis value for the next window, plus whether that is a change. The
// policy, inherited unchanged from the PR-2 shard tuner:
//
//   - a window with too few samples carries no signal and never moves (the
//     controller sums starved windows before they get here, see tick);
//   - after any move, one cooldown window is skipped, then the move is
//     evaluated: a climb must cut the rate to ≤ improve× the pre-move rate
//     or it is reverted and the climb bar raised to autoTuneWorsen× the
//     steady rate (so steady pressure cannot make the axis oscillate); a
//     descent that pushes the rate back over the climb bar is reverted and
//     the descent bar halved below the rate that triggered it;
//   - otherwise the axis climbs one ladder step when the rate exceeds the
//     climb bar and descends one step when it falls below the descent bar.
func (a *axisTuner) observe(rate float64, samples int64) (int, bool) {
	if samples < autoTuneMinSamples {
		return a.value(), false
	}
	if a.wait > 0 {
		a.wait--
		return a.value(), false
	}
	if prev := a.pending; prev >= 0 {
		a.pending = -1
		switch {
		case a.pos > prev && rate > a.improve*a.preRate:
			// The climb did not pay: revert, and demand substantially
			// more pressure than the steady rate before climbing again.
			a.upBar = autoTuneWorsen * a.preRate
			return a.jump(prev), true
		case a.pos < prev && rate >= a.upBar:
			// The descent reintroduced pressure: revert, and demand
			// substantially less pressure before descending again.
			a.downBar = a.preRate / 2
			return a.jump(prev), true
		}
		// Move accepted; fall through — the new steady rate may justify
		// the next step immediately.
	}
	switch {
	case rate > a.upBar && a.pos < len(a.ladder)-1:
		a.pending, a.preRate = a.pos, rate
		return a.jump(a.pos + 1), true
	case rate < a.downBar && a.pos > 0:
		a.pending, a.preRate = a.pos, rate
		return a.jump(a.pos - 1), true
	}
	return a.value(), false
}

// jump moves to ladder position p and starts the post-move cooldown.
func (a *axisTuner) jump(p int) int {
	a.pos = p
	a.wait = autoTuneCool
	return a.value()
}

// shardLadder is the S axis: doubling shard counts 1,2,4,… capped at maxS
// (which joins the ladder even when not itself a power of two).
func shardLadder(maxS int) []int {
	if maxS < 1 {
		maxS = 1
	}
	var out []int
	for s := 1; s < maxS; s *= 2 {
		out = append(out, s)
	}
	return append(out, maxS)
}

// tpLadder is the Tp axis, ordered loose→tight: maxTp, maxTp/2, …, 2, 1, 0.
// Position 0 is the loosest leash; climbing the ladder halves the bound and
// ends at the paper's LSH_ps0. The whole ladder is finite: an autotuned run
// configured with PersistenceInf starts at maxTp, the loosest tuned bound.
func tpLadder(maxTp int) []int {
	if maxTp < 1 {
		maxTp = 1
	}
	var out []int
	for tp := maxTp; tp >= 1; tp /= 2 {
		out = append(out, tp)
	}
	return append(out, 0)
}

// ladderPos locates the position of the closest ladder entry for value v
// (ladders are monotone; v outside the range clamps to the nearer end).
func ladderPos(ladder []int, v int) int {
	best, bestDist := 0, -1
	for i, lv := range ladder {
		d := lv - v
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// tuner is the joint (Tp, S) decision core: two axisTuners stepped in
// coordinate descent. Exactly one axis is active at a time; it consumes the
// observation windows until it goes idle without moving (its signal is
// inside the hysteresis band and no evaluation is pending), then the token
// alternates. This keeps each move's evaluation window clean — the rate a
// move is judged by was produced under that move alone — which is what lets
// the per-axis no-thrash guarantees of the PR-2 controller carry over to the
// joint grid, where the optimal Tp shifts whenever S moves.
type tuner struct {
	s, tp    *axisTuner
	tpFrozen bool // LeashedAdaptive: per-worker bound adaptation owns Tp
	activeTp bool // coordinate-descent token
}

// newTuner builds the joint tuner: the S axis starting at s0 capped at maxS,
// the Tp axis starting at the ladder entry closest to tp0 (PersistenceInf
// maps to the loosest bound, maxTp) capped at maxTp. tpFrozen pins the Tp
// axis for runs whose persistence bound is owned elsewhere (LeashedAdaptive).
func newTuner(s0, maxS, tp0, maxTp int, tpFrozen bool) *tuner {
	sl := shardLadder(maxS)
	tl := tpLadder(maxTp)
	tpPos := 0
	if tp0 != PersistenceInf {
		tpPos = ladderPos(tl, tp0)
	}
	return &tuner{
		s:        newAxisTuner(sl, ladderPos(sl, s0), autoShardClimbRate, autoShardDescendRate, autoShardImprove),
		tp:       newAxisTuner(tl, tpPos, autoTuneTightenRate, autoTuneLoosenRate, autoTuneImprove),
		tpFrozen: tpFrozen,
	}
}

// window is one controller observation: the per-window deltas of the two
// signal pairs, plus the phase timings the model tuner fits on. The S axis
// rate is failed/pubs (failed CAS per successful publish); the Tp axis rate
// is mixed/reads (mixed-version fraction of the leased gradient reads).
type window struct {
	failed, pubs int64
	mixed, reads int64
	// tcNs/tcN are the gradient-phase nanoseconds and count, tuNs the
	// update-phase nanoseconds (all zero unless Config.Tune is TuneModel).
	tcNs, tcN, tuNs int64
}

// policy is a controller's decision core as the epoch owner sees it:
// windows in, operating point out. The ladder (*tuner) and the model tuner
// (*modelTuner, which owns its fallback ladder) implement it.
type policy interface {
	// samples is w's sample count for the signal the next decision reads;
	// tick carries a window with fewer than autoTuneMinSamples forward.
	samples(w window) int64
	// next consumes one window measured at (curS, curTp) and returns the
	// operating point for the next one.
	next(w window, curS, curTp int) (s, tp int)
}

// next is the ladder as a policy: one coordinate-descent step.
func (t *tuner) next(w window, _, _ int) (s, tp int) {
	s, tp, _, _ = t.observe(w)
	return s, tp
}

// samples is the active axis's sample count in w: leased reads for Tp,
// publishes for S.
func (t *tuner) samples(w window) int64 {
	if t.activeTp && !t.tpFrozen {
		return w.reads
	}
	return w.pubs
}

// observe feeds one window to the active axis and reports the next (S, Tp)
// configuration plus which axis moved. At most one of sChanged/tpChanged is
// true per window — the coordinate-descent invariant.
func (t *tuner) observe(w window) (s, tp int, sChanged, tpChanged bool) {
	if t.activeTp && !t.tpFrozen {
		tp, tpChanged = t.tp.observe(rateOf(w.mixed, w.reads), w.reads)
		if !tpChanged && t.tp.idle() {
			t.activeTp = false
		}
		return t.s.value(), tp, false, tpChanged
	}
	s, sChanged = t.s.observe(rateOf(w.failed, w.pubs), w.pubs)
	if !sChanged && t.s.idle() {
		t.activeTp = true
	}
	return s, t.tp.value(), sChanged, false
}

// syncTo forces both axes to the ladder positions nearest (s, tp) with a
// clean slate (no pending evaluation, one cooldown window) — called by the
// model tuner after a jump so a later fallback resumes the hill-climb from
// the point the model landed on.
func (t *tuner) syncTo(s, tp int) {
	t.s.pos = ladderPos(t.s.ladder, s)
	t.s.pending = -1
	t.s.wait = autoTuneCool
	if !t.tpFrozen {
		t.tp.pos = ladderPos(t.tp.ladder, tp)
		t.tp.pending = -1
		t.tp.wait = autoTuneCool
	}
}

func rateOf(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// launchController starts the controller goroutine of a run with a policy,
// which runs tick every 2·EvalEvery — two loss samples per window, 50 ms at
// the default cadence; a static run has none. The worker
// side is the ordinary unified loop — leashedStrategy pins the live epoch
// under the read lock for exactly one iteration and reloads the bound at
// each begin.
func (ep *epochs) launchController(rt *runCtx, wg *sync.WaitGroup) {
	if ep.policy == nil {
		return
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(2 * rt.cfg.EvalEvery)
		defer ticker.Stop()
		var win metrics.CounterWindow
		for !rt.stop.Load() {
			select {
			case <-ticker.C:
			case <-rt.done:
				return
			case <-rt.stopped:
				return
			}
			ep.tick(rt, &win)
		}
	}()
}

// tick is one controller wake-up: it windows the signal deltas (failed CAS +
// publishes for the S axis, mixed + total leased reads for the Tp axis, the
// phase timings for the model fit), asks the policy for the next (S, Tp), and
// actuates once — an atomic bound store if Tp changed and the axis is not
// frozen, a store swap if S changed and the run is not stopping. A window in
// which the policy has fewer than autoTuneMinSamples samples is carried into
// the next one until the sum is usable; a slow run (a CNN at a few hundred
// updates/s, any run under the race detector) would otherwise never have a
// window judged.
func (ep *epochs) tick(rt *runCtx, win *metrics.CounterWindow) {
	failed, pubs := ep.totals()
	consistent, mixed := rt.readTotals()
	tcNs, tcN, tuNs := rt.timingTotals()
	d := win.Deltas(failed, pubs, mixed, consistent+mixed, tcNs, tcN, tuNs)
	w := window{
		failed: d[0], pubs: d[1], mixed: d[2], reads: d[3],
		tcNs: d[4], tcN: d[5], tuNs: d[6],
	}
	if ep.policy.samples(w) < autoTuneMinSamples {
		win.Carry()
		return
	}
	curS, curTp := ep.point()
	s, tp := ep.policy.next(w, curS, curTp)
	if tp != curTp && !ep.tpFrozen {
		ep.retune(tp)
	}
	if s != curS && !rt.stop.Load() {
		ep.reshard(rt, s)
	}
}
