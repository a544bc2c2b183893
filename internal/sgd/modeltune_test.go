package sgd

import (
	"fmt"
	"testing"

	"leashedsgd/internal/metrics"
)

// mtWindow builds one synthetic controller window whose counters AND phase
// timings are mutually consistent with the fluid model at the given operating
// point, so FitWindows accepts it: failed/pubs fixes the loss probability q
// and the contention occupancy S·(1+f); the timings are chosen so the fluid
// fixed point lands on the same occupancy (Tc = R·U∞ with
// R = m/occupancy − 1, U∞ = S·tu/(1−q)).
func mtWindow(m, s int, failed, pubs, mixed, reads int64) (window, int64, int64, int64) {
	f := float64(failed) / float64(pubs)
	q := f / (1 + f)
	occ := float64(s) * (1 + f)
	const tuPass = 1000.0 // ns per publish attempt
	uInf := float64(s) * tuPass / (1 - q)
	r := float64(m)/occ - 1
	tc := r * uInf
	w := window{failed: failed, pubs: pubs, mixed: mixed, reads: reads}
	tcN := pubs
	tcNs := int64(tc * float64(tcN))
	tuNs := int64(tuPass * float64(pubs+failed))
	return w, tcNs, tcN, tuNs
}

func newTestModelTuner(m int) *modelTuner {
	return newModelTuner(m, shardLadder(16), tpLadder(16), false)
}

// TestModelTunerJumpsOnGoodFit: two consistent windows at S=1 with a
// failed-CAS load of 0.4 per publish must produce one jump straight to the
// ~1/S-law prediction S=8 (0.4/8 = autoShardClimbRate) with the leash left
// loose (clean reads) — the tentpole's ≤1-window-per-axis convergence at the
// decision-core level.
func TestModelTunerJumpsOnGoodFit(t *testing.T) {
	mt := newTestModelTuner(8)
	w, tcNs, tcN, tuNs := mtWindow(8, 1, 400, 1000, 0, 1000)
	if dec := mt.observe(w, tcNs, tcN, tuNs, 1, 16); dec.jump || dec.fallback {
		t.Fatalf("first window (warm-up) produced a decision: %+v", dec)
	}
	dec := mt.observe(w, tcNs, tcN, tuNs, 1, 16)
	if !dec.jump {
		t.Fatalf("second consistent window did not jump: %+v (fit %+v)", dec, mt.fit)
	}
	if dec.s != 8 {
		t.Fatalf("jumped to S=%d, want the 1/S-law prediction 8", dec.s)
	}
	if dec.tp != 16 {
		t.Fatalf("jumped to Tp=%d with clean reads, want the loose bound 16", dec.tp)
	}
	if mt.jumps != 1 || !mt.fitOK {
		t.Fatalf("jumps=%d fitOK=%v after the jump, want 1/true", mt.jumps, mt.fitOK)
	}

	// At the landed point the same workload shows f/8 per chain: the
	// prediction reproduces the current point and the tuner holds.
	w, tcNs, tcN, tuNs = mtWindow(8, 8, 50, 1000, 0, 1000)
	for i := 0; i < 6; i++ {
		if dec := mt.observe(w, tcNs, tcN, tuNs, 8, 16); dec.jump || dec.fallback {
			t.Fatalf("post-jump steady window %d moved: %+v", i, dec)
		}
	}
	if mt.jumps != 1 {
		t.Fatalf("steady state re-jumped: jumps=%d", mt.jumps)
	}
}

// TestModelTunerDeadbandHoldsOneRung: after the jump, a prediction one ladder
// rung away is within one-step noise and must never re-jump — the jump-mode
// hysteresis replacing the ladder's accept/revert machinery.
func TestModelTunerDeadbandHoldsOneRung(t *testing.T) {
	mt := newTestModelTuner(8)
	w, tcNs, tcN, tuNs := mtWindow(8, 1, 400, 1000, 0, 1000)
	mt.observe(w, tcNs, tcN, tuNs, 1, 16)
	if dec := mt.observe(w, tcNs, tcN, tuNs, 1, 16); !dec.jump || dec.s != 8 {
		t.Fatalf("setup jump missing: %+v", dec)
	}
	// f = 0.1 per chain at S=8: load 0.8 predicts the next rung (16) — one
	// rung away, inside the deadband.
	w, tcNs, tcN, tuNs = mtWindow(8, 8, 100, 1000, 0, 1000)
	for i := 0; i < 8; i++ {
		if dec := mt.observe(w, tcNs, tcN, tuNs, 8, 16); dec.jump {
			t.Fatalf("one-rung prediction re-jumped at window %d: %+v", i, dec)
		}
	}
	if mt.predictedS != 16 {
		t.Fatalf("predictedS=%d, want 16 (held by the deadband)", mt.predictedS)
	}
	if mt.jumps != 1 {
		t.Fatalf("jumps=%d, want 1", mt.jumps)
	}
}

// TestModelTunerRejumpsOnRegimeShift: a prediction ≥2 rungs away must persist
// modelConfirm consecutive windows, then re-jump.
func TestModelTunerRejumpsOnRegimeShift(t *testing.T) {
	mt := newTestModelTuner(8)
	// Load 0.09 at S=1 predicts S=2 (0.09/2 ≤ 0.05).
	w, tcNs, tcN, tuNs := mtWindow(8, 1, 90, 1000, 0, 1000)
	mt.observe(w, tcNs, tcN, tuNs, 1, 16)
	if dec := mt.observe(w, tcNs, tcN, tuNs, 1, 16); !dec.jump || dec.s != 2 {
		t.Fatalf("setup jump missing or mistargeted: %+v", dec)
	}
	// Regime shift: f = 1.6 per chain at S=2 → load 3.2 → ladder top 16,
	// three rungs away. One cooldown window, one ring warm-up window, then
	// the first fit arms the confirmation and the next one executes it.
	w, tcNs, tcN, tuNs = mtWindow(8, 2, 1600, 1000, 0, 1000)
	mt.observe(w, tcNs, tcN, tuNs, 2, 16) // post-jump cooldown
	mt.observe(w, tcNs, tcN, tuNs, 2, 16) // ring warm-up (1 window < minimum)
	if dec := mt.observe(w, tcNs, tcN, tuNs, 2, 16); dec.jump {
		t.Fatalf("re-jump executed without confirmation: %+v", dec)
	}
	dec := mt.observe(w, tcNs, tcN, tuNs, 2, 16)
	if !dec.jump || dec.s != 16 {
		t.Fatalf("confirmed regime shift did not re-jump to 16: %+v", dec)
	}
	if mt.jumps != 2 {
		t.Fatalf("jumps=%d, want 2", mt.jumps)
	}
}

// TestModelTunerResidualFallback: windows whose contention estimate is wildly
// unstable reject the fit; modelFallbackAfter consecutive rejections demote
// the tuner permanently to the ladder. This is the fit-residual fallback path
// of the acceptance criteria.
func TestModelTunerResidualFallback(t *testing.T) {
	mt := newTestModelTuner(8)
	calm, ctcNs, ctcN, ctuNs := mtWindow(8, 1, 10, 1000, 0, 1000)
	storm, stcNs, stcN, stuNs := mtWindow(8, 1, 5000, 1000, 0, 1000)
	sawFallback := false
	for i := 0; i < 2*modelFallbackAfter+2; i++ {
		var dec modelDecision
		if i%2 == 0 {
			dec = mt.observe(calm, ctcNs, ctcN, ctuNs, 1, 16)
		} else {
			dec = mt.observe(storm, stcNs, stcN, stuNs, 1, 16)
		}
		if dec.jump {
			t.Fatalf("unstable windows produced a jump at %d: %+v", i, dec)
		}
		if dec.fallback {
			sawFallback = true
		}
	}
	if !sawFallback || !mt.sticky {
		t.Fatalf("unstable fit never demoted to the ladder (sticky=%v, rejected=%d)",
			mt.sticky, mt.rejected)
	}
	if mt.rejected < modelFallbackAfter {
		t.Fatalf("rejected=%d, want >= %d", mt.rejected, modelFallbackAfter)
	}
	// Once sticky, every window goes to the ladder.
	for i := 0; i < 3; i++ {
		if dec := mt.observe(calm, ctcNs, ctcN, ctuNs, 1, 16); !dec.fallback {
			t.Fatalf("sticky tuner stopped falling back: %+v", dec)
		}
	}
}

// TestModelTunerSingleWorkerFallsBack: one worker has no contention signal —
// the fit errors and the tuner demotes permanently instead of looping.
func TestModelTunerSingleWorkerFallsBack(t *testing.T) {
	mt := newTestModelTuner(1)
	w := window{failed: 0, pubs: 1000, reads: 1000}
	mt.observe(w, 0, 0, 0, 1, 16)
	dec := mt.observe(w, 0, 0, 0, 1, 16)
	if !dec.fallback || !mt.sticky {
		t.Fatalf("single-worker fit did not demote: %+v (sticky=%v)", dec, mt.sticky)
	}
}

// TestModelTunerZeroPublishWindowsHold: windows with no publishes carry no
// signal; the tuner neither fits nor falls back — it waits.
func TestModelTunerZeroPublishWindowsHold(t *testing.T) {
	mt := newTestModelTuner(8)
	w := window{failed: 0, pubs: 0, mixed: 0, reads: 0}
	for i := 0; i < 10; i++ {
		if dec := mt.observe(w, 0, 0, 0, 1, 16); dec.jump || dec.fallback {
			t.Fatalf("zero-publish window %d produced a decision: %+v", i, dec)
		}
	}
	if mt.fits != 0 {
		t.Fatalf("fits=%d on pure zero-publish input, want 0", mt.fits)
	}
}

// TestModelTunerTightensTpUnderMixedPressure: heavy mixed-read rate in an
// otherwise good fit must predict a tighter leash in the SAME jump as the
// shard move — one window serves both axes.
func TestModelTunerTightensTpUnderMixedPressure(t *testing.T) {
	mt := newTestModelTuner(8)
	w, tcNs, tcN, tuNs := mtWindow(8, 1, 3000, 1000, 900, 1000)
	mt.observe(w, tcNs, tcN, tuNs, 1, 16)
	dec := mt.observe(w, tcNs, tcN, tuNs, 1, 16)
	if !dec.jump {
		t.Fatalf("contended windows did not jump: %+v (fit %+v)", dec, mt.fit)
	}
	if dec.s != 16 {
		t.Fatalf("load 3.0 jumped to S=%d, want ladder top 16", dec.s)
	}
	if dec.tp >= 16 {
		t.Fatalf("mixed rate 0.9 left Tp at %d, want tighter than 16", dec.tp)
	}
}

// TestModelTunerTpFrozen: under LeashedAdaptive the per-worker bound owns Tp;
// the model may only steer S and must echo the frozen bound untouched.
func TestModelTunerTpFrozen(t *testing.T) {
	mt := newModelTuner(8, shardLadder(16), tpLadder(16), true)
	w, tcNs, tcN, tuNs := mtWindow(8, 1, 400, 1000, 900, 1000)
	mt.observe(w, tcNs, tcN, tuNs, 1, PersistenceInf)
	dec := mt.observe(w, tcNs, tcN, tuNs, 1, PersistenceInf)
	if !dec.jump || dec.s != 8 {
		t.Fatalf("frozen-Tp jump missing or mistargeted: %+v", dec)
	}
	if dec.tp != PersistenceInf {
		t.Fatalf("frozen Tp moved to %d", dec.tp)
	}
}

// TestModelTickActuatesJumpAndFallback drives the controller's tick by hand in
// model-guided mode, with m = 8 and the run at (S, Tp) = (1, 16). Two
// consistent windows under CAS and mixed-read pressure give one good fit: the
// jump to (4, 0) is actuated at tick 2 through the store swap and the bound
// swap, and the ladder is re-seated there. Five windows whose counters
// (S·(1+f) = 5.6) and timings (occupancy ≈ 1) disagree follow: a cooldown, a
// warm-up, then three rejected fits demote the model at tick 7. From then on
// every window is the fallback ladder's, and clean windows walk S 4 → 2 → 1
// and loosen Tp 0 → 1, each move actuated and counted.
func TestModelTickActuatesJumpAndFallback(t *testing.T) {
	const d, m = 64, 8
	cfg := Config{Algo: Leashed, Workers: m, Eta: 0.1, Persistence: PersistenceInf,
		MaxUpdates: 10, Tune: TuneModel}
	rt := newRuntime(cfg, stubProblem{d: d})
	joint := newTuner(1, 16, PersistenceInf, 16, false)
	mt := newModelTuner(m, shardLadder(16), tpLadder(16), false)
	mt.ladder = joint
	at := &epochs{policy: mt, buf: make([]float64, d)}
	at.epoch = newShardEpoch(d, 1, make([]float64, d))
	at.trajectory, at.tpTrajectory = []int{1}, []int{16}
	at.bound.Store(16)
	defer func() { at.epoch.store.Retire() }()

	var win metrics.CounterWindow
	tick := func(w window, tcNs, tcN, tuNs int64) {
		at.epoch.failed[0].n.Add(w.failed)
		at.epoch.pub[0].n.Add(w.pubs)
		rt.readTallies[0].mixed.Add(w.mixed)
		rt.readTallies[0].consistent.Add(w.reads - w.mixed)
		rt.timing[0].tcNs.Add(tcNs)
		rt.timing[0].tcN.Add(tcN)
		rt.timing[0].tuNs.Add(tuNs)
		at.tick(rt, &win)
	}

	good, tcNs, tcN, tuNs := mtWindow(m, 1, 150, 1000, 900, 1000)
	tick(good, tcNs, tcN, tuNs)
	tick(good, tcNs, tcN, tuNs)
	if got := fmt.Sprint(at.trajectory, at.tpTrajectory); got != "[1 4] [16 0]" {
		t.Fatalf("after the good fit: trajectories %s, want the jump [1 4] [16 0]", got)
	}
	if s, tp := joint.s.value(), joint.tp.value(); s != 4 || tp != 0 {
		t.Fatalf("ladder at (%d, %d) after the jump, want re-seated at (4, 0)", s, tp)
	}

	falsified := window{failed: 400, pubs: 1000, reads: 1000}
	_, tcNs, tcN, tuNs = mtWindow(m, 1, 10, 1000, 0, 1000)
	for i := 0; i < 5; i++ {
		tick(falsified, tcNs, tcN, tuNs)
	}
	clean := window{pubs: 1000, reads: 1000}
	for i := 0; i < 8; i++ {
		tick(clean, 0, 0, 0)
	}
	if got := fmt.Sprint(at.trajectory, at.tpTrajectory); got != "[1 4 2 1] [16 0 1]" {
		t.Fatalf("trajectories %s, want the ladder's moves [1 4 2 1] [16 0 1] after the demotion", got)
	}

	res := &Result{}
	at.fill(res)
	mf := res.ModelFit
	if mf == nil || !mf.Fitted || mf.Jumps != 1 || mf.LadderMoves != 3 || mf.FallbackWindows != 9 || mf.Rejected != 3 {
		t.Fatalf("ModelFit %+v, want fitted, 1 jump, 3 ladder moves, 9 fallback windows, 3 rejected fits", mf)
	}
	if res.Reshards != 3 || res.Shards != 1 || mf.FinalS != 1 || mf.FinalTp != 1 {
		t.Fatalf("Reshards %d Shards %d FinalS %d FinalTp %d, want 3, 1, 1, 1",
			res.Reshards, res.Shards, mf.FinalS, mf.FinalTp)
	}
}

// --- end-to-end -----------------------------------------------------------

// TestAutoTuneModelRun: a real model-guided run finishes cleanly, reports the
// ModelFit record, keeps both trajectories on their ladders, and leaks
// nothing — the structural invariants; whether the model jumped or fell back
// depends on host contention.
func TestAutoTuneModelRun(t *testing.T) {
	ds := tinyDataset()
	cfg := autoConfig(4)
	cfg.Tune = TuneModel
	cfg.EpsilonFrac = 0
	cfg.MaxUpdates = 400
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	if res.ModelFit == nil {
		t.Fatal("TuneModel run has nil Result.ModelFit")
	}
	mf := res.ModelFit
	if mf.FinalS != res.Shards {
		t.Fatalf("ModelFit.FinalS=%d but Result.Shards=%d", mf.FinalS, res.Shards)
	}
	if mf.Jumps < 0 || mf.Jumps > 0 && !mf.Fitted {
		t.Fatalf("jumped %d times without a fitted model", mf.Jumps)
	}
	if res.TotalUpdates != 400 {
		t.Fatalf("TotalUpdates = %d, want the exact budget 400", res.TotalUpdates)
	}
	if res.FinalLiveVectors != 0 {
		t.Fatalf("leak: %d vectors live after run", res.FinalLiveVectors)
	}
	onLadder := map[int]bool{}
	for _, v := range tpLadder(16) {
		onLadder[v] = true
	}
	for _, tp := range res.TpTrajectory {
		if !onLadder[tp] {
			t.Fatalf("TpTrajectory %v contains off-ladder bound %d", res.TpTrajectory, tp)
		}
	}
	sLadderOK := map[int]bool{}
	for _, v := range shardLadder(min(64, ds.Dim())) {
		sLadderOK[v] = true
	}
	for _, s := range res.ShardTrajectory {
		if !sLadderOK[s] {
			t.Fatalf("ShardTrajectory %v contains off-ladder count %d", res.ShardTrajectory, s)
		}
	}
}

// TestAutoTuneModelImpliesAutoTune: model tuning needs the same Leashed epoch
// owner as ladder tuning, so Start refuses TuneModel on HOGWILD just as it
// refuses TuneLadder there.
func TestAutoTuneModelImpliesAutoTune(t *testing.T) {
	cfg := Config{Algo: Hogwild, Workers: 2, Eta: 0.1, Tune: TuneModel}
	if _, err := Start(cfg, tinyNet(tinyDataset()), tinyDataset()); err == nil {
		t.Fatal("TuneModel with HOGWILD accepted; want the tuning validation to fire")
	}
}
