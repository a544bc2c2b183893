package sgd

import (
	"leashedsgd/internal/atomicx"
	"leashedsgd/internal/paramvec"
)

// hogwildStrategy is HOGWILD! (Algorithm 4) under the unified worker loop:
// no coordination among threads; each copies the shared vector, computes a
// gradient, and applies it component by component while others read and
// write concurrently.
//
// Go-specific adaptation (docs/architecture.md, "HOGWILD! in Go"): the shared
// θ lives in a []uint64 bit-pattern array accessed with atomic loads and
// CAS-adds, because Go forbids racing float64 accesses. Component updates are
// individually atomic (no torn words, no lost component updates), but the
// vector as a whole has NO consistency — reads interleave with concurrent
// partial updates exactly as in the original HOGWILD!, which is the
// inconsistency penalty (the √d factor of Alistarh et al. [3]) the paper
// measures against. The read stays a copy by necessity: the bit-pattern array
// cannot be viewed as []float64, so the zero-copy lease protocol does not
// apply here. Like SEQ and ASYNC, HOGWILD! ignores Config.Shards: every
// update is one sweep over the whole vector.
type hogwildStrategy struct {
	nopHooks
	rt     *runCtx
	shared []uint64
	// accounting represents the shared atomic array as one live
	// ParameterVector in the memory gauges.
	accounting *paramvec.Vector
}

func (rt *runCtx) newHogwildStrategy(initVec *paramvec.Vector) *hogwildStrategy {
	st := &hogwildStrategy{
		rt:         rt,
		shared:     make([]uint64, rt.d),
		accounting: initVec,
	}
	for i, v := range initVec.Theta {
		atomicx.StoreFloat64(&st.shared[i], v)
	}
	return st
}

func (st *hogwildStrategy) setup(w *loopWorker) {
	w.param = paramvec.New(st.rt.pool)
	w.velocity = st.rt.maybeVelocity()
}

func (st *hogwildStrategy) begin(w *loopWorker) bool { return st.rt.defaultBegin() }

func (st *hogwildStrategy) read(w *loopWorker) paramvec.View {
	// Uncoordinated read: other workers may be mid-update, so this view
	// can mix parameter versions (inconsistent).
	w.readSeq = st.rt.updates.Load()
	theta := w.param.Theta
	for i := range st.shared {
		theta[i] = atomicx.LoadFloat64(&st.shared[i])
	}
	return paramvec.FlatView(theta)
}

func (st *hogwildStrategy) commit(w *loopWorker, s step) bool {
	rt := st.rt
	// Reserve a budget unit before touching the shared array: HOGWILD has
	// no abort path, so a reservation is always applied and the budget
	// stays exact. On failure the in-flight sweeps of the final budgeted
	// updates are still draining; the loop gate re-checks the stop
	// conditions.
	if !rt.reserveUpdate() {
		return false
	}
	w.reserved = true
	s.atomicApply(st.shared, rt.adaptedEta(rt.updates.Load()-w.readSeq))
	applied := rt.applyUpdate()
	w.reserved = false
	w.hist.Observe(applied - 1 - w.readSeq)
	return true
}

// recoverIter refunds a reserved-but-unapplied budget unit. A panic mid-sweep
// may leave some component-atomic adds applied and others not — a lost
// partial update, which HOGWILD's no-consistency contract already admits —
// but the update is not counted, so the budget stays exact.
func (st *hogwildStrategy) recoverIter(w *loopWorker) {
	if w.reserved {
		w.reserved = false
		st.rt.refundUpdate()
	}
}

func (st *hogwildStrategy) snapshot(dst []float64) {
	for i := range dst {
		dst[i] = atomicx.LoadFloat64(&st.shared[i])
	}
}

func (st *hogwildStrategy) cleanup() {
	st.accounting.Release()
}
