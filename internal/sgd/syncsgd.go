package sgd

import (
	"sync"
	"time"

	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/tensor"
)

// syncStrategy is lock-step synchronous SGD (SyncSGD, paper Sec. I) under
// the unified worker loop: every round, all m workers compute a gradient
// against the same parameter snapshot, a coordinator averages the m
// gradients and takes one global step — statistically equivalent to
// sequential SGD with an m× larger batch [Zinkevich et al.; Gupta et al.],
// and rate-limited by the slowest worker per round (the straggler penalty
// that motivates asynchronous variants).
//
// The round barrier maps onto the loop hooks: begin blocks on the worker's
// start channel (closed channel = run over — workers deliberately do NOT
// check the stop flag, so every signaled round is answered and the
// coordinator can never deadlock collecting gradients); read returns the
// round-immutable shared vector zero-copy; commit hands the gradient to the
// coordinator. Reservation, the global step and the Tu sample happen
// coordinator-side, which is why loopTimesCommit is false. One round counts
// as one update in the global order; staleness is 0 by construction.
type syncStrategy struct {
	nopHooks
	rt     *runCtx
	mtx    sync.Mutex // guards shared between rounds (monitor snapshots)
	shared *paramvec.Vector
	start  []chan struct{}
	done   chan step
}

func (rt *runCtx) newSyncStrategy(initVec *paramvec.Vector) *syncStrategy {
	st := &syncStrategy{
		rt:     rt,
		shared: initVec,
		start:  make([]chan struct{}, rt.cfg.Workers),
		done:   make(chan step, rt.cfg.Workers),
	}
	for w := range st.start {
		st.start[w] = make(chan struct{}, 1)
	}
	return st
}

// SYNC keeps the no-op setup: w.velocity stays nil, so the momentum
// extension never applies — the coordinator averages raw gradients and steps
// with the plain η.

func (st *syncStrategy) begin(w *loopWorker) bool {
	_, ok := <-st.start[w.id]
	// Token consumed: the coordinator now counts on this worker's round
	// contribution, delivered by commit or — after a panic — by recoverIter.
	w.midRound = ok
	return ok
}

func (st *syncStrategy) read(w *loopWorker) paramvec.View {
	// The shared vector is immutable for the round: zero-copy share.
	return paramvec.FlatView(st.shared.Theta)
}

func (st *syncStrategy) commit(w *loopWorker, s step) bool {
	// The gradient buffers stay untouched until the coordinator has
	// collected them: the worker parks in begin until the next round
	// signal, which the coordinator sends only after draining all m
	// gradients. The update itself (and its Tu sample) happens
	// coordinator-side.
	st.done <- s
	w.midRound = false
	return true
}

// nilStep is a zero contribution to a SYNC round: all applications are
// no-ops, so averaging it in only scales the round's effective batch. It
// stands in for a crashed or retired worker's gradient, keeping the
// coordinator's drain count intact.
type nilStep struct{}

func (nilStep) addScaled([]float64, float64)            {}
func (nilStep) applyVector(*paramvec.Vector, float64)   {}
func (nilStep) atomicApply([]uint64, int, int, float64) {}
func (nilStep) window(int, int) (int, int)              { return 0, 0 }
func (nilStep) publishChain(paramvec.ParamStore, int, int, int, *paramvec.Vector, *paramvec.Vector, float64) bool {
	return true
}

// recoverIter keeps the round barrier sound after a worker panic: if the
// worker had consumed its round token without delivering a contribution, a
// zero step is sent in its place (done is buffered to the worker count, so
// this never blocks) and the coordinator's drain completes normally.
func (st *syncStrategy) recoverIter(w *loopWorker) {
	if w.midRound {
		w.midRound = false
		st.done <- nilStep{}
	}
}

// retireWorker answers round signals on behalf of a permanently dead slot
// with zero contributions, so the coordinator — which drains exactly m steps
// per round — never deadlocks on a worker that is out of restarts. Runs on
// the slot's supervisor goroutine and exits when the coordinator closes the
// start channels at end of run.
func (st *syncStrategy) retireWorker(id int) {
	for range st.start[id] {
		st.done <- nilStep{}
	}
}

func (st *syncStrategy) loopTimesCommit() bool { return false }

// launchAux starts the round coordinator.
func (st *syncStrategy) launchAux(wg *sync.WaitGroup) {
	rt := st.rt
	cfg := rt.cfg
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			for w := range st.start {
				close(st.start[w])
			}
		}()
		avg := make([]float64, rt.d)
		tu := rt.tus[0]
		hist := rt.hists[0]
		for !rt.stop.Load() && !rt.budgetExhausted() {
			for w := 0; w < cfg.Workers; w++ {
				st.start[w] <- struct{}{}
			}
			tensor.Fill(avg, 0)
			for w := 0; w < cfg.Workers; w++ {
				g := <-st.done
				// Representation-generic averaging: dense steps Axpy the
				// whole vector, sparse ones scatter only their nonzeros.
				g.addScaled(avg, 1/float64(cfg.Workers))
			}
			st.mtx.Lock()
			// The coordinator is the only reserver, so a failed
			// reservation means the budget is exactly spent.
			if !rt.reserveUpdate() {
				st.mtx.Unlock()
				break
			}
			var t0 time.Time
			if cfg.SampleTiming {
				t0 = time.Now()
			}
			st.shared.Update(avg, cfg.Eta)
			if cfg.SampleTiming {
				tu.Observe(time.Since(t0))
			}
			rt.applyUpdate()
			st.mtx.Unlock()
			hist.Observe(0) // lock-step: no concurrent updates by construction
		}
	}()
}

func (st *syncStrategy) snapshot(dst []float64) {
	st.mtx.Lock()
	copy(dst, st.shared.Theta)
	st.mtx.Unlock()
}

func (st *syncStrategy) cleanup() {
	st.shared.Release()
}
