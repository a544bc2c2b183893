// The unified, store-parameterized worker loop. Every algorithm — SEQ/ASYNC,
// HOGWILD! and Leashed-SGD (single-chain and sharded, both through
// paramvec.ParamStore) — runs its workers through workerLoop below;
// what differs per algorithm is reduced to the strategy hooks: how the
// parameter view for the gradient read is produced (lock-copy, atomic-copy,
// zero-copy lease), and what the publish protocol does with the computed
// step (locked in-place update, component-atomic adds, per-chain LAU-SPC).
// The loop itself owns the pieces every algorithm shares: the stop/budget
// gate, batch sampling, gradient computation and Tc/Tu timing.
package sgd

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"leashedsgd/internal/faultinject"
	"leashedsgd/internal/metrics"
	"leashedsgd/internal/paramvec"
)

// strategy supplies the per-algorithm pieces of the unified worker loop plus
// the monitor-facing snapshot/cleanup pair. One strategy value is shared by
// all workers; per-worker state lives in the loopWorker.
type strategy interface {
	// setup initializes per-worker strategy state (e.g. checks out the
	// private read-copy buffer for copy-read protocols).
	setup(w *loopWorker)
	// begin gates the next iteration and returns false to end the worker's
	// loop.
	begin(w *loopWorker) bool
	// read produces the parameter view the gradient is computed against
	// and records the read-sequence baseline for staleness.
	read(w *loopWorker) paramvec.View
	// endRead releases whatever read acquired (lease validation for the
	// zero-copy protocols; no-op for copy reads).
	endRead(w *loopWorker)
	// commit runs the publish protocol for the computed step, including
	// budget reservation/refund and staleness observation. The step is
	// representation-generic (dense or sparse CSR — see problem.go); each
	// protocol applies it through the step interface. It reports whether
	// an update phase actually ran — false when the budget reservation
	// failed and the step was discarded — so aborted commits do not
	// contaminate the Tu distribution with near-zero samples.
	commit(w *loopWorker, s step) bool
	// snapshot copies a consistent view of the current parameters into
	// dst; called only from the monitor goroutine and after quiesce.
	snapshot(dst []float64)
	// cleanup releases the shared parameter state after the run.
	cleanup()
	// fill records the strategy's own measurements into res once the
	// workers have exited: the Leashed store's contention and chain-pool
	// accounting.
	fill(res *Result)
	// recoverIter rolls back a panicked iteration: release whatever
	// iteration-scoped state the worker still holds (lease, strategy mutex,
	// budget reservation) so the crash is isolated — the rest of the run
	// keeps publishing and the supervisor can respawn the slot. Called from the recovery defer with the panicked worker's
	// state; the loopWorker's hold flags record exactly what to release.
	recoverIter(w *loopWorker)
}

// nopHooks provides the no-op defaults strategies embed.
type nopHooks struct{}

func (nopHooks) setup(*loopWorker)       {}
func (nopHooks) endRead(*loopWorker)     {}
func (nopHooks) recoverIter(*loopWorker) {}
func (nopHooks) fill(*Result)            {}

// loopWorker is one worker's state in the unified loop: the pieces every
// algorithm needs (the problem's gradient computer, metrics, optional
// momentum velocity) plus the strategy-specific slots (read-copy buffer,
// lease).
type loopWorker struct {
	id       int
	gw       gradWorker       // the problem's per-worker gradient computer
	param    *paramvec.Vector // private read-copy target; nil for zero-copy reads
	hist     *metrics.Hist
	tc, tu   *metrics.DurationSampler
	velocity []float64

	// Copy-read protocols: the global update sequence at read time.
	readSeq int64

	// Leased zero-copy reads (Leashed-SGD).
	lease paramvec.Lease
	tally *readTally // this worker's consistency tally slot

	// Crash-isolation bookkeeping: which iteration-scoped resources the
	// worker currently holds. Maintained by the strategy hooks on the
	// worker's own goroutine (plain fields, no atomics needed) so
	// recoverIter can release exactly what a panic left behind without
	// deadlocking the run.
	leaseHeld bool // leashed: chain lease between read and endRead
	lockHeld  bool // async: strategy mutex inside read/commit critical sections
	reserved  bool // a budget reservation not yet applied or refunded
}

func (rt *runCtx) newLoopWorker(id int) *loopWorker {
	return &loopWorker{
		id:    id,
		gw:    rt.prob.newGradWorker(rt, id),
		hist:  rt.hists[id],
		tc:    rt.tcs[id],
		tu:    rt.tus[id],
		tally: &rt.readTallies[id],
	}
}

// maybeVelocity returns a fresh per-worker heavy-ball velocity when the
// momentum extension is on. Every strategy calls it in setup.
func (rt *runCtx) maybeVelocity() []float64 {
	if rt.cfg.Momentum > 0 {
		return make([]float64, rt.d)
	}
	return nil
}

// defaultBegin is the uncoordinated iteration gate: run until stopped or the
// update budget is spent, yielding while the final in-flight reservations
// drain (so workers don't burn whole gradient passes that are guaranteed to
// fail reservation).
func (rt *runCtx) defaultBegin() bool {
	for {
		if rt.stop.Load() || rt.budgetExhausted() {
			return false
		}
		if rt.budgetFullyReserved() {
			runtime.Gosched()
			continue
		}
		return true
	}
}

// WorkerFault records one recovered worker panic (Result.WorkerFaults).
type WorkerFault struct {
	Worker  int    // worker slot id
	Restart int    // prior respawns of this slot when the fault hit
	Err     string // the recovered panic value
	// Respawned reports whether the supervisor restarted the slot after
	// this fault — false once the restart cap is exhausted or the run was
	// already ending.
	Respawned bool
}

// runWorkers starts cfg.Workers supervised goroutines running the unified
// loop.
func (rt *runCtx) runWorkers(wg *sync.WaitGroup, st strategy) {
	for i := 0; i < rt.cfg.Workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rt.superviseWorker(id, st)
		}(i)
	}
}

// superviseWorker runs one worker slot: the unified loop under panic
// recovery, respawned with fresh per-worker state after a recovered crash,
// up to the configured restart cap. A crash therefore costs the in-flight
// iteration (rolled back by recoverIter) and a respawn, never the process
// or the budget invariant.
func (rt *runCtx) superviseWorker(id int, st strategy) {
	for restart := 0; ; restart++ {
		fault := rt.workerLoop(id, st)
		if fault == nil {
			return // clean exit: stop condition or budget drained
		}
		fault.Restart = restart
		fault.Respawned = restart < rt.cfg.WorkerRestarts &&
			!rt.stop.Load() && !rt.budgetExhausted()
		rt.recordFault(*fault)
		if !fault.Respawned {
			// A run whose every slot is out of restarts can make no more
			// progress: stop it instead of idling out the time limit.
			rt.faultMu.Lock()
			rt.dead++
			allDead := rt.dead == rt.cfg.Workers
			rt.faultMu.Unlock()
			if allDead {
				rt.stop.Store(true)
				rt.stopOnce.Do(func() { close(rt.stopped) })
			}
			return
		}
	}
}

// workerLoop is THE training loop: gate, read, gradient, release, commit.
// The gradient phase is delegated to the problem's gradWorker — sample picks
// the minibatch untimed, compute produces the representation-generic step
// and is what the Tc sampler measures — so one loop body serves dense
// backprop and sparse logistic regression alike.
//
// A panic anywhere in the loop is caught here and reported to the
// supervisor; the recovery defer is registered FIRST so during the unwind it
// runs LAST, after the buffer-release defer below has already returned the
// worker's private buffers, and rolls back the iteration through
// strategy.recoverIter.
func (rt *runCtx) workerLoop(id int, st strategy) (fault *WorkerFault) {
	w := rt.newLoopWorker(id)
	defer func() {
		if r := recover(); r != nil {
			st.recoverIter(w)
			fault = &WorkerFault{Worker: id, Err: fmt.Sprint(r)}
		}
	}()
	st.setup(w)
	defer func() {
		if w.param != nil {
			w.param.Release()
		}
		w.gw.close()
	}()
	sample := rt.cfg.SampleTiming
	for st.begin(w) {
		pv := st.read(w)
		w.gw.sample()
		if inj := rt.inj; inj != nil {
			// Mid-iteration fault point: every iteration-scoped resource
			// (the Leashed lease) is held here, so an injected panic
			// exercises the full recovery path.
			switch f := inj.Decide(faultinject.WorkerIter); f.Kind {
			case faultinject.KindPanic:
				panic(faultinject.Panic{Site: faultinject.WorkerIter, N: f.N})
			case faultinject.KindStall:
				time.Sleep(f.Stall)
			}
		}
		var t0 time.Time
		if sample {
			t0 = time.Now()
		}
		s := w.gw.compute(pv, w.velocity)
		if sample {
			w.tc.Observe(time.Since(t0))
		}
		st.endRead(w)
		if sample {
			t0 = time.Now()
		}
		if st.commit(w, s) && sample {
			w.tu.Observe(time.Since(t0))
		}
	}
	return nil
}

// adaptedEta returns the step size for an update whose staleness estimate at
// apply time is tau: η/(1+β·τ̂) with the configured TauAdaptiveBeta, or the
// plain η when the extension is off.
func (rt *runCtx) adaptedEta(tau int64) float64 {
	beta := rt.cfg.TauAdaptiveBeta
	if beta <= 0 || tau <= 0 {
		return rt.cfg.Eta
	}
	return rt.cfg.Eta / (1 + beta*float64(tau))
}

func zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}
