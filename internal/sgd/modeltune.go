// Model-guided (Tp, S) tuning (Config.Tune = TuneModel): instead of
// hill-climbing the joint grid one hysteresis window per ladder step
// (autotune.go), fit the paper's Section IV fluid model to the windowed
// counters the controller already samples and JUMP to the predicted
// operating point — the closed form replacing ~3 windows of empirical
// groping per axis with one model evaluation.
//
// The estimator (queuemodel.FitWindows) consumes exactly the signals the
// ladder tuner steers on — failed-CAS per publish, mixed-version read rate —
// plus the phase timings (Tc per gradient, Tu per publish attempt) that the
// model's Tc/Tu ratio needs, pooled over a short ring of windows at one
// operating point. The fit's residual is the online validation of Theorem 3:
// when the closed form explains the live counters the controller trusts its
// predictions (Fit.PredictShards / Fit.PredictTp) and issues the jump through
// the SAME actuators the ladder uses — the epoch-barrier store swap for S,
// the atomic bound swap for Tp. When the model is falsified — a residual
// above modelMaxResidual for modelFallbackAfter consecutive fits, or a
// workload that cannot carry a fit at all (single worker, dead publish
// path) — the controller degrades permanently to the PR-5 ladder, so the
// worst case is exactly today's behavior.
//
// Moves after the first jump pass a two-rung deadband: a prediction one
// ladder rung away from the current point is within the noise the ladder's
// own hysteresis exists for and never re-jumps; a two-rung-or-more shift
// (a genuine regime change) must persist for modelConfirm consecutive
// windows. This is the jump-mode equivalent of the axisTuner's
// accept/revert hysteresis: the model gets ONE free jump per regime, not a
// license to thrash.
package sgd

import (
	"sync/atomic"

	"leashedsgd/internal/queuemodel"
)

const (
	// modelMaxResidual is the fit-residual threshold above which a fit is
	// rejected: the fluid prediction and the contention-implied occupancy
	// disagree (or the windows are unstable) badly enough that jumping on
	// the model would be acting on a falsified theory.
	modelMaxResidual = 0.5
	// modelFallbackAfter is how many consecutive rejected fits demote the
	// controller permanently to the empirical ladder.
	modelFallbackAfter = 3
	// modelMinWindows is the minimum ring depth before the first fit — one
	// window has no cross-window stability evidence.
	modelMinWindows = 2
	// modelRingSize bounds the observation ring pooled per fit.
	modelRingSize = 4
	// modelConfirm is how many consecutive windows a post-jump re-target
	// (≥ 2 rungs away) must persist before it is executed.
	modelConfirm = 2
	// modelDeadbandRungs is the minimum ladder-rung distance a re-jump must
	// cover; closer predictions are within one-step noise and are held.
	modelDeadbandRungs = 2
)

// timeTally is one worker's cumulative phase-timing counters for the model
// estimator: gradient-phase nanoseconds and count, and update-phase (commit)
// nanoseconds. Atomic and padded so the controller can sample them live per
// window — metrics.DurationSampler is per-worker merge-at-exit by contract
// and cannot feed a mid-run reader. The per-attempt Tu the fit needs is
// tuNs / (publishes + failed CAS): commit's duration spread over the
// attempts the same window's counters record — a mean over full passes and
// the truncated ones of attempts that saw their head replaced mid-pass
// (counted in failed CAS like a lost CAS), so it falls below the cost of
// one uncontended publish as contention rises.
type timeTally struct {
	tcNs, tcN, tuNs atomic.Int64
	_               [104]byte
}

// timingTotals sums the per-worker phase-timing tallies (zero when the run
// does not sample them — only model-guided autotune allocates the slice).
func (rt *runCtx) timingTotals() (tcNs, tcN, tuNs int64) {
	for i := range rt.timing {
		tcNs += rt.timing[i].tcNs.Load()
		tcN += rt.timing[i].tcN.Load()
		tuNs += rt.timing[i].tuNs.Load()
	}
	return tcNs, tcN, tuNs
}

// ModelFitResult records what the model-guided tuner did during a run
// (Result.ModelFit; nil unless Config.Tune is TuneModel).
type ModelFitResult struct {
	// Fitted reports whether at least one fit passed the residual gate.
	Fitted bool
	// Params is the last accepted fitted model (normalized units — see
	// queuemodel.Fit.Params) and Residual its disagreement diagnostic.
	Params   queuemodel.Params
	Residual float64
	// FailedPerPublish and MixedRate are the pooled rates of the last
	// accepted fit — the signals the prediction was made from.
	FailedPerPublish float64
	MixedRate        float64
	// PredictedOccupancy is the fitted model's retry-loop occupancy n*_γ.
	PredictedOccupancy float64
	// PredictedS/PredictedTp is the last predicted operating point;
	// FinalS/FinalTp is where the run actually ended (they differ when the
	// deadband held a one-rung re-target, or a jump raced the run's end).
	PredictedS, PredictedTp int
	FinalS, FinalTp         int
	// Jumps counts model-guided jumps executed; LadderMoves counts the
	// fallback ladder's moves; FallbackWindows the windows decided by the
	// ladder (0 when the model stayed in charge throughout).
	Jumps           int
	LadderMoves     int
	FallbackWindows int
	// Fits and Rejected count fit attempts and residual rejections.
	Fits     int
	Rejected int
}

// modelObs is one controller window's worth of estimator inputs.
type modelObs struct {
	obs             queuemodel.Observation
	tcNs, tcN, tuNs int64
}

// modelDecision is one window's verdict: hold, jump to (s, tp), or hand the
// window to the fallback ladder.
type modelDecision struct {
	s, tp          int
	jump, fallback bool
}

// modelTuner is the model-guided decision core: clock-free and atomics-free
// (like axisTuner) so the policy is unit-testable from synthetic windows.
type modelTuner struct {
	m                 int
	sLadder, tpLadder []int
	tpFrozen          bool
	// ladder is the fallback the tuner demotes to; observe never touches
	// it, next does.
	ladder *tuner

	ring    []modelObs
	wait    int  // post-jump cooldown windows
	sticky  bool // permanently demoted to the ladder
	rejects int  // consecutive residual rejections

	jumped              bool // first jump done; later moves face the deadband
	confirmS, confirmTp int  // pending re-target awaiting confirmation
	confirm             int

	// Result bookkeeping.
	fit                     queuemodel.Fit
	fitOK                   bool
	fits, rejected          int
	jumps, ladderMoves      int
	fallbackWindows         int
	predictedS, predictedTp int
}

func newModelTuner(m int, sLadder, tpLadder []int, tpFrozen bool) *modelTuner {
	return &modelTuner{m: m, sLadder: sLadder, tpLadder: tpLadder, tpFrozen: tpFrozen}
}

// reset clears the observation ring — called after ANY operating-point move
// (jump or fallback ladder move), because queuemodel.FitConfig describes the
// point the windows were measured at and stale windows would poison the fit.
func (mt *modelTuner) reset() { mt.ring = mt.ring[:0] }

func (mt *modelTuner) push(o modelObs) {
	if len(mt.ring) == modelRingSize {
		copy(mt.ring, mt.ring[1:])
		mt.ring = mt.ring[:modelRingSize-1]
	}
	mt.ring = append(mt.ring, o)
}

// observe feeds one controller window (plus its timing deltas) measured at
// the current operating point (curS, curTp) and returns the verdict.
func (mt *modelTuner) observe(w window, tcNs, tcN, tuNs int64, curS, curTp int) modelDecision {
	hold := modelDecision{s: curS, tp: curTp}
	if mt.sticky {
		mt.fallbackWindows++
		return modelDecision{s: curS, tp: curTp, fallback: true}
	}
	if mt.wait > 0 {
		mt.wait--
		return hold
	}
	mt.push(modelObs{
		obs: queuemodel.Observation{
			Failed: w.failed, Published: w.pubs,
			Mixed: w.mixed, Reads: w.reads,
		},
		tcNs: tcNs, tcN: tcN, tuNs: tuNs,
	})

	obs := make([]queuemodel.Observation, 0, len(mt.ring))
	var pubs, failed, tcNsT, tcNT, tuNsT int64
	for _, o := range mt.ring {
		obs = append(obs, o.obs)
		pubs += o.obs.Published
		failed += o.obs.Failed
		tcNsT += o.tcNs
		tcNT += o.tcN
		tuNsT += o.tuNs
	}
	if len(mt.ring) < modelMinWindows || pubs < autoTuneMinSamples {
		return hold // warm-up: not enough signal for a first fit yet
	}

	var tc, tu float64
	if tcNT > 0 {
		tc = float64(tcNsT) / float64(tcNT)
	}
	if passes := pubs + failed; passes > 0 && tuNsT > 0 {
		tu = float64(tuNsT) / float64(passes)
	}
	fit, err := queuemodel.FitWindows(queuemodel.FitConfig{
		M: mt.m, Shards: curS, Tp: curTp, Tc: tc, Tu: tu,
	}, obs)
	mt.fits++
	if err != nil {
		// The workload cannot carry a contention model at all — permanent
		// demotion, not a transient rejection.
		mt.sticky = true
		mt.fallbackWindows++
		return modelDecision{s: curS, tp: curTp, fallback: true}
	}
	mt.fit = fit
	if fit.Residual > modelMaxResidual {
		mt.rejected++
		mt.rejects++
		if mt.rejects >= modelFallbackAfter {
			mt.sticky = true
			mt.fallbackWindows++
			return modelDecision{s: curS, tp: curTp, fallback: true}
		}
		return hold // rejected but not yet demoted: hold the point
	}
	mt.rejects = 0
	mt.fitOK = true

	s := fit.PredictShards(mt.sLadder, autoShardClimbRate)
	tp := curTp
	if !mt.tpFrozen {
		tp = fit.PredictTp(mt.tpLadder, s, autoTuneTightenRate)
	}
	mt.predictedS, mt.predictedTp = s, tp
	if s == curS && tp == curTp {
		mt.confirm = 0
		return hold
	}
	if mt.jumped {
		// Post-jump moves face the deadband + confirmation hysteresis.
		dS := ladderPos(mt.sLadder, s) - ladderPos(mt.sLadder, curS)
		dTp := 0
		if !mt.tpFrozen {
			dTp = ladderPos(mt.tpLadder, tp) - ladderPos(mt.tpLadder, curTp)
		}
		if abs(dS) < modelDeadbandRungs && abs(dTp) < modelDeadbandRungs {
			return hold
		}
		if s == mt.confirmS && tp == mt.confirmTp {
			mt.confirm++
		} else {
			mt.confirmS, mt.confirmTp = s, tp
			mt.confirm = 1
		}
		if mt.confirm < modelConfirm {
			return hold
		}
	}
	mt.jumped = true
	mt.jumps++
	mt.confirm = 0
	mt.wait = autoTuneCool
	mt.reset()
	return modelDecision{s: s, tp: tp, jump: true}
}

// result snapshots the tuner's record for Result.ModelFit. Called after the
// controller has exited; no locking needed.
func (mt *modelTuner) result(finalS, finalTp int) *ModelFitResult {
	return &ModelFitResult{
		Fitted:             mt.fitOK,
		Params:             mt.fit.Params,
		Residual:           mt.fit.Residual,
		FailedPerPublish:   mt.fit.FailedPerPublish,
		MixedRate:          mt.fit.MixedRate,
		PredictedOccupancy: mt.fit.Occupancy,
		PredictedS:         mt.predictedS,
		PredictedTp:        mt.predictedTp,
		FinalS:             finalS,
		FinalTp:            finalTp,
		Jumps:              mt.jumps,
		LadderMoves:        mt.ladderMoves,
		FallbackWindows:    mt.fallbackWindows,
		Fits:               mt.fits,
		Rejected:           mt.rejected,
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// samples is the fallback ladder's sample count: the model reads the same
// windows the ladder would.
func (mt *modelTuner) samples(w window) int64 { return mt.ladder.samples(w) }

// next is the model tuner as a policy: ask the fit for a verdict, hand a
// demoted window to the fallback ladder (clearing the ring after any ladder
// move, since the fit describes one operating point), and re-seat the ladder
// at a jump's landing point so a later demotion resumes the hill-climb FROM
// the model's operating point, not from where the ladder last stood. Under
// LeashedAdaptive the fit sees an unbounded Tp, as the workers' own bounds
// are not the controller's.
func (mt *modelTuner) next(w window, curS, curTp int) (s, tp int) {
	if mt.tpFrozen {
		curTp = PersistenceInf
	}
	dec := mt.observe(w, w.tcNs, w.tcN, w.tuNs, curS, curTp)
	switch {
	case dec.fallback:
		s, tp, sChanged, tpChanged := mt.ladder.observe(w)
		if sChanged || tpChanged {
			mt.ladderMoves++
			mt.reset()
		}
		return s, tp
	case dec.jump:
		mt.ladder.syncTo(dec.s, dec.tp)
	}
	return dec.s, dec.tp
}
