package sgd

import (
	"sync"

	"leashedsgd/internal/paramvec"
)

// asyncStrategy is the lock-based AsyncSGD protocol (Algorithm 2) under the
// unified worker loop. SEQ is the m = 1 special case: with a single worker
// the mutex is always uncontended, so the schedule is sequential SGD with
// only nanoseconds of monitor-snapshot overhead.
//
// Shared state: PARAM (one ParameterVector) guarded by mtx. Each worker owns
// local_param (the read-copy target) and local_grad, giving the paper's
// constant 2m+1 ParameterVector instances. The read hook copies the shared
// parameters under the lock; the commit hook reserves a budget unit, applies
// the step in place and advances the global order inside the same critical
// section, so a failed reservation means the budget is exactly spent. The
// loop's Tu sample covers the whole commit, lock acquisition included — the
// queueing delay IS the lock-based update cost the paper measures against.
type asyncStrategy struct {
	nopHooks
	rt     *runCtx
	mtx    sync.Mutex
	shared *paramvec.Vector
}

func (rt *runCtx) newAsyncStrategy(initVec *paramvec.Vector) *asyncStrategy {
	return &asyncStrategy{rt: rt, shared: initVec}
}

func (st *asyncStrategy) setup(w *loopWorker) {
	w.param = paramvec.New(st.rt.pool)
}

func (st *asyncStrategy) read(w *loopWorker) paramvec.View {
	st.mtx.Lock()
	w.lockHeld = true
	w.param.CopyFrom(st.shared)
	w.readSeq = st.rt.updates.Load()
	w.lockHeld = false
	st.mtx.Unlock()
	return paramvec.FlatView(w.param.Theta)
}

func (st *asyncStrategy) commit(w *loopWorker, s step) bool {
	rt := st.rt
	st.mtx.Lock()
	w.lockHeld = true
	if !rt.reserveUpdate() {
		w.lockHeld = false
		st.mtx.Unlock()
		return false
	}
	w.reserved = true
	s.applyVector(st.shared, rt.adaptedEta(rt.updates.Load()-w.readSeq))
	applied := rt.applyUpdate()
	w.reserved = false
	w.lockHeld = false
	st.mtx.Unlock()
	// Staleness: updates applied between our read and ours (our own
	// update excluded).
	w.hist.Observe(applied - 1 - w.readSeq)
	return true
}

// recoverIter unlocks the shared-parameter mutex if the crash hit inside a
// critical section, so the run (and the monitor's snapshot) keeps making
// progress.
func (st *asyncStrategy) recoverIter(w *loopWorker) {
	if w.lockHeld {
		w.lockHeld = false
		st.mtx.Unlock()
	}
}

func (st *asyncStrategy) snapshot(dst []float64) {
	st.mtx.Lock()
	copy(dst, st.shared.Theta)
	st.mtx.Unlock()
}

func (st *asyncStrategy) cleanup() {
	st.shared.Release()
}
