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
// tuned run (Config.Tune). Every run publishes through one epoch
// owner (epochs, epoch.go): a static run is that owner with no controller;
// an autotuned run's controller swaps the store between epochs behind the
// same interface and retunes the persistence bound atomically.
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
// The LeashedAdaptive variant (extension, docs/architecture.md,
// "LeashedAdaptive") replaces the fixed Tp with a bound that shrinks under
// observed contention: a worker halves its local bound after a dropped
// segment and grows it by one after a fully uncontended iteration,
// approximating the γ-regulation of Corollary 3.2 without manual tuning.
type leashedStrategy struct {
	nopHooks
	rt    *runCtx
	ep    *epochs // the run's epoch owner
	unpin func()  // ep.mu.RUnlock, bound once so a pin allocates nothing
	seqs  []int64 // monitor snapshot seq reuse
}

// newLeashedStrategy publishes θ0 into the run's first epoch and hands the
// init vector's buffer back to the pool.
func (rt *runCtx) newLeashedStrategy(initVec *paramvec.Vector) *leashedStrategy {
	rt.epochs = rt.newEpochs(initVec.Theta)
	initVec.Release()
	return &leashedStrategy{rt: rt, ep: rt.epochs, unpin: rt.epochs.mu.RUnlock}
}

func (st *leashedStrategy) setup(w *loopWorker) {
	w.velocity = st.rt.maybeVelocity()
}

// begin gates the iteration and pins the live epoch: workers hold the epoch
// read lock for exactly one iteration, so a controller's re-shard (write
// lock) waits for in-flight iterations and blocks new ones. They also reload
// the persistence bound — a Tp move is nothing more than this atomic load
// observing a new value (the per-worker adaptive bound of LeashedAdaptive
// stays worker-owned).
func (st *leashedStrategy) begin(w *loopWorker) bool {
	if !st.rt.defaultBegin() {
		return false
	}
	if !w.adaptive {
		w.bound = int(st.ep.bound.Load())
	}
	st.ep.mu.RLock()
	w.epochLock = true
	w.epoch = st.ep.epoch
	return true
}

func (st *leashedStrategy) end(w *loopWorker) {
	w.epochLock = false
	st.ep.mu.RUnlock()
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

// pinStore pins the live epoch's store for an outside reader — a ReadFront
// fold, or a serving lease's Acquire: the epoch read lock is held across the
// pin window, so a re-shard (write lock) waits for it exactly as it waits
// for in-flight worker iterations, and never retires a store mid-pin.
func (st *leashedStrategy) pinStore() (paramvec.ParamStore, func()) {
	st.ep.mu.RLock()
	return st.ep.epoch.store, st.unpin
}

// launchAux starts the run's controller, if it has one.
func (st *leashedStrategy) launchAux(wg *sync.WaitGroup) {
	st.ep.launchController(st.rt, wg)
}

// snapshot copies the published parameters under read protection; the
// per-chain sequence slice is hoisted and reused across monitor ticks.
func (st *leashedStrategy) snapshot(dst []float64) {
	st.ep.mu.RLock()
	st.seqs = st.ep.epoch.store.Snapshot(dst, st.seqs)
	st.ep.mu.RUnlock()
}

// snapshotConsistent retries the store snapshot under seqlock validation so a
// checkpoint captures a true cross-chain global state, not a skewed mix. On
// attempt exhaustion under heavy publish pressure the last (per-chain untorn)
// copy stands — same guarantee as snapshot.
func (st *leashedStrategy) snapshotConsistent(dst []float64) {
	st.ep.mu.RLock()
	st.ep.epoch.store.SnapshotConsistent(dst, 8)
	st.ep.mu.RUnlock()
}

// recoverIter rolls back a panicked iteration: the lease is released first
// (its chains belong to the epoch the read lock pins), then the budget
// reservation is refunded, then the epoch pin itself is dropped — so a
// re-shard's quiesce can never observe a dangling lease from a crashed
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
		st.ep.mu.RUnlock()
	}
}

// respawnBarrier orders a respawned worker against the controller: taking
// and releasing the epoch write lock waits out any re-shard the crash raced
// with, so the fresh worker's first begin pins a settled epoch.
func (st *leashedStrategy) respawnBarrier() {
	st.ep.mu.Lock()
	st.ep.mu.Unlock() //nolint:staticcheck // empty critical section is the barrier
}

func (st *leashedStrategy) fill(res *Result) { st.ep.fill(res) }

func (st *leashedStrategy) cleanup() { st.ep.epoch.store.Retire() }
