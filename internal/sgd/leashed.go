package sgd

import (
	"sync"

	"leashedsgd/internal/faultinject"
	"leashedsgd/internal/paramvec"
)

// leashedStrategy is Leashed-SGD (Algorithm 3) under the unified worker
// loop, parameterized over paramvec.ParamStore — ONE implementation covers
// the paper's single chain (Config.Shards <= 1), the sharded store
// (Shards > 1) — both the chain store paramvec.ShardedShared — and the
// autotuned run (Config.AutoTune, where the controller swaps the store
// between epochs behind the same interface and retunes the persistence
// bound atomically).
//
// Per iteration a worker:
//
//  1. leases every chain's latest published vector with the lock-free
//     latest_pointer protocol (paramvec.Lease) and computes its gradient
//     DIRECTLY against the published segments through the stitched read-only
//     view — zero-copy reads (paper P3) on every store, including the
//     sharded one, which PR 1 had traded for a copy-per-read;
//  2. releases the lease, which validates the per-chain sequence numbers (a
//     seqlock over the chains) and classifies the read as provably
//     consistent or possibly mixed-version (Result.ConsistentReads /
//     MixedReads — the staleness/consistency measurement PR 1 introduced,
//     now without the copy);
//  3. enters the LAU-SPC loop per chain, traversing chains in a rotated
//     order (start chain = worker id mod C) so concurrent workers spread
//     over the chains instead of marching through them in lockstep: check
//     out a fresh chain vector, build the (possibly newer) latest published
//     segment minus η·gradient into it in one fused pass, and try to publish
//     with a single CAS (paper P1, P5) — a dense pass that sees its head
//     replaced stops early and skips the CAS it could only lose;
//  4. on a lost attempt, retries up to the persistence bound Tp, after which
//     that chain's gradient segment is dropped and the vector recycled
//     (contention regulation, Sec. IV-2); replaced vectors are marked stale
//     and recycled once the last reader leaves (paper P2, P4).
//
// The global update counter advances once per iteration that published at
// least one chain; an iteration that published nothing refunds its budget
// reservation so MaxUpdates stays exact. Staleness and contention are
// counted per chain in the shardEpoch.
//
// The LeashedAdaptive variant (extension, DESIGN.md §6) replaces the fixed
// Tp with a bound that shrinks under observed contention: a worker halves
// its local bound after a dropped segment and grows it by one after a fully
// uncontended iteration, approximating the γ-regulation of Corollary 3.2
// without manual tuning.
type leashedStrategy struct {
	nopHooks
	rt    *runCtx
	epoch *shardEpoch // fixed publication epoch; nil when autotuned
	auto  *autoTuner  // epoch owner for autotuned runs; nil otherwise
	seqs  []int64     // monitor snapshot seq reuse
}

// newLeashedStrategy publishes θ0 into the run's store — autotuned runs get
// the controller-owned first epoch, static runs a fixed one — and hands the
// init vector's buffer back to the pool.
func (rt *runCtx) newLeashedStrategy(initVec *paramvec.Vector) *leashedStrategy {
	cfg := rt.cfg
	if cfg.AutoTune {
		maxS := min(cfg.AutoShardMax, rt.d)
		// Under LeashedAdaptive the per-worker bound adaptation owns Tp;
		// the joint tuner then moves the S axis only.
		tpFrozen := cfg.Algo == LeashedAdaptive
		at := &autoTuner{
			joint: newTuner(cfg.AutoShardInitial, maxS, cfg.Persistence, cfg.AutoTuneTpMax, tpFrozen),
			buf:   make([]float64, rt.d),
		}
		if cfg.AutoTuneModel {
			at.model = newModelTuner(cfg.Workers, shardLadder(maxS),
				tpLadder(cfg.AutoTuneTpMax), tpFrozen)
		}
		at.epoch = newShardEpoch(rt.d, at.joint.s.value(), initVec.Theta)
		at.trajectory = []int{at.epoch.store.Chains()}
		if !tpFrozen {
			// A frozen Tp axis records no trajectory: the workers' bounds
			// are the per-worker adaptive values seeded from Persistence,
			// so a ladder-clamped "start" here would report a bound that
			// was never in effect.
			at.bound.Store(int64(at.joint.tp.value()))
			at.tpTrajectory = []int{at.joint.tp.value()}
		}
		initVec.Release()
		rt.auto = at
		return &leashedStrategy{rt: rt, auto: at}
	}
	e := newShardEpoch(rt.d, rt.numShards(), initVec.Theta)
	initVec.Release()
	rt.epoch = e
	rt.store = e.store
	return &leashedStrategy{rt: rt, epoch: e}
}

func (st *leashedStrategy) setup(w *loopWorker) {
	w.velocity = st.rt.maybeVelocity()
}

// begin gates the iteration and pins the live epoch: autotuned workers hold
// the epoch read lock for exactly one iteration, so the controller's
// re-shard (write lock) waits for in-flight iterations and blocks new ones.
// They also reload the tuned persistence bound — a Tp move is nothing more
// than this atomic load observing a new value (the per-worker adaptive
// bound of LeashedAdaptive stays worker-owned).
func (st *leashedStrategy) begin(w *loopWorker) bool {
	if !st.rt.defaultBegin() {
		return false
	}
	if st.auto != nil {
		if !w.adaptive {
			w.bound = int(st.auto.bound.Load())
		}
		st.auto.mu.RLock()
		w.epochLock = true
		w.epoch = st.auto.epoch
	} else {
		w.epoch = st.epoch
	}
	return true
}

func (st *leashedStrategy) end(w *loopWorker) {
	if st.auto != nil {
		w.epochLock = false
		st.auto.mu.RUnlock()
	}
}

// read leases the chains' latest vectors — the zero-copy gradient view.
func (st *leashedStrategy) read(w *loopWorker) paramvec.View {
	pv := w.lease.Acquire(w.epoch.store)
	w.leaseHeld = true
	return pv
}

// endRead releases the lease and tallies the consistency classification —
// live per-worker counts (the Tp axis's windowed signal) plus the per-chain
// stale-read breakdown for mixed reads.
func (st *leashedStrategy) endRead(w *loopWorker) {
	w.leaseHeld = false
	if w.lease.Release() {
		w.tally.consistent.Add(1)
		return
	}
	w.tally.mixed.Add(1)
	for _, c := range w.lease.AdvancedChains() {
		w.epoch.rstale[c].n.Add(1)
	}
}

// commit runs the per-chain LAU-SPC publish loops under one reserved unit of
// the update budget. The loop is representation-generic: chains the step has
// no mass in are skipped outright (the scatter-publish win — a sparse step
// touches ~min(S, B·NNZ) of the S chains, and untouched chains see no CAS,
// no copy and no pool traffic), and each attempt folds the step through
// step.publishChain (one fused whole-segment pass for dense, base-shifted
// sparse scatter for CSR). A false from publishChain is a lost attempt —
// a failed CAS or a dense pass abandoned because its head was replaced —
// and the accounting below does not tell them apart.
func (st *leashedStrategy) commit(w *loopWorker, s step) bool {
	rt := st.rt
	e := w.epoch
	store := e.store
	C := store.Chains()

	// Claim a budget unit before anything becomes visible; when the budget
	// is fully claimed the gradient is discarded and the loop gate
	// re-checks the stop conditions (resuming only if a claim is refunded).
	if !rt.reserveUpdate() {
		return false
	}
	w.reserved = true

	publishedAny := false
	cleanIter := true // every chain published without a retry
	droppedAny := false
	for k := 0; k < C; k++ {
		c := (w.id + k) % C
		r := store.ChainRange(c)
		a, b := s.window(r.Lo, r.Hi)
		if a == b {
			continue
		}
		readT := w.lease.Seq(c)
		newSeg := store.NewChainVec(c)
		tries := 0
		for {
			if inj := rt.inj; inj != nil {
				// Injected publish failure: burns a persistence-bound try
				// exactly like a lost CAS, so bursts drive the drop/recycle
				// path without touching the store.
				if f := inj.Decide(faultinject.Publish); f.Kind == faultinject.KindFail {
					e.failed[c].n.Add(1)
					tries++
					if w.bound >= 0 && tries > w.bound {
						newSeg.Release()
						e.dropped[c].n.Add(1)
						droppedAny = true
						break
					}
					continue
				}
			}
			cur := store.ChainLatest(c)
			// Staleness estimate at apply time: publishes between the
			// gradient's source vector and the head we fold onto, in this
			// chain's own sequence numbers.
			tau := cur.T - readT
			ok := s.publishChain(store, c, a, b, cur, newSeg, rt.adaptedEta(tau))
			cur.StopReading()
			if ok {
				publishedAny = true
				e.pub[c].n.Add(1)
				e.touched[c].n.Add(int64(b - a))
				w.hist.Observe(tau)
				e.stale[c].n.Add(tau)
				if tries > 0 {
					cleanIter = false
				}
				break
			}
			e.failed[c].n.Add(1)
			tries++
			if w.bound >= 0 && tries > w.bound {
				newSeg.Release()
				e.dropped[c].n.Add(1)
				droppedAny = true
				break
			}
			if rt.stop.Load() {
				newSeg.Release()
				cleanIter = false
				break
			}
		}
	}
	if publishedAny {
		rt.applyUpdate()
	} else {
		rt.refundUpdate()
	}
	w.reserved = false
	// Adaptive persistence: grow only after a fully uncontended iteration,
	// halve only after a dropped gradient segment (a retried-but-successful
	// publish is neither).
	if w.adaptive {
		if droppedAny {
			w.bound /= 2
		} else if cleanIter && publishedAny {
			if w.bound < 64 {
				w.bound++
			}
		}
	}
	return true
}

// leaseLive implements the liveLeaser hook for readers outside the worker
// pool (the serving tier, via Running.ReadParams): the lease is acquired
// under the epoch pin so it can never start against a store the autotuner
// has already retired. The pin is dropped as soon as the lease is held — a
// long inference pass never blocks a re-shard; it just releases against a
// retired epoch and is labeled (paramvec.Lease.RetiredStore).
func (st *leashedStrategy) leaseLive(l *paramvec.Lease) paramvec.View {
	if st.auto != nil {
		st.auto.mu.RLock()
		pv := l.Acquire(st.auto.epoch.store)
		st.auto.mu.RUnlock()
		return pv
	}
	return l.Acquire(st.epoch.store)
}

// pinStore pins the live epoch's store for a ReadFront fold: autotuned runs
// hold the epoch read lock across the pin window, so the controller's
// re-shard (write lock) waits for an in-flight fold exactly as it waits for
// in-flight worker iterations. Static runs return the fixed store bare — the
// caller's run-level pin (Running.pinStore) already orders it against the
// end-of-run retirement.
func (st *leashedStrategy) pinStore() (paramvec.ParamStore, func()) {
	if st.auto != nil {
		st.auto.mu.RLock()
		return st.auto.epoch.store, st.auto.mu.RUnlock
	}
	return st.epoch.store, func() {}
}

// launchAux starts the autotune controller for autotuned runs.
func (st *leashedStrategy) launchAux(wg *sync.WaitGroup) {
	if st.auto != nil {
		st.auto.launchController(st.rt, wg)
	}
}

// snapshot copies the published parameters under read protection; the
// per-chain sequence slice is hoisted and reused across monitor ticks.
func (st *leashedStrategy) snapshot(dst []float64) {
	if st.auto != nil {
		st.auto.mu.RLock()
		st.seqs = st.auto.epoch.store.Snapshot(dst, st.seqs)
		st.auto.mu.RUnlock()
		return
	}
	st.seqs = st.epoch.store.Snapshot(dst, st.seqs)
}

// snapshotConsistent retries the store snapshot under seqlock validation so a
// checkpoint captures a true cross-chain global state, not a skewed mix. On
// attempt exhaustion under heavy publish pressure the last (per-chain untorn)
// copy stands — same guarantee as snapshot.
func (st *leashedStrategy) snapshotConsistent(dst []float64) {
	if st.auto != nil {
		st.auto.mu.RLock()
		st.auto.epoch.store.SnapshotConsistent(dst, 8)
		st.auto.mu.RUnlock()
		return
	}
	st.epoch.store.SnapshotConsistent(dst, 8)
}

// recoverIter rolls back a panicked iteration: the lease is released first
// (its chains belong to the epoch the read lock pins), then the budget
// reservation is refunded, then the epoch pin itself is dropped — so the
// autotuner's quiesce can never observe a dangling lease from a crashed
// worker.
func (st *leashedStrategy) recoverIter(w *loopWorker) {
	if w.leaseHeld {
		w.leaseHeld = false
		w.lease.Release()
	}
	if w.reserved {
		w.reserved = false
		st.rt.refundUpdate()
	}
	if w.epochLock {
		w.epochLock = false
		st.auto.mu.RUnlock()
	}
}

// respawnBarrier orders a respawned worker against the autotune controller:
// taking and releasing the epoch write lock waits out any re-shard the crash
// raced with, so the fresh worker's first begin pins a settled epoch.
func (st *leashedStrategy) respawnBarrier() {
	if st.auto != nil {
		st.auto.mu.Lock()
		st.auto.mu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	}
}

func (st *leashedStrategy) cleanup() {
	if st.auto != nil {
		st.auto.epoch.store.Retire()
		return
	}
	st.epoch.store.Retire()
}
