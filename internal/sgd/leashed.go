package sgd

import (
	"leashedsgd/internal/faultinject"
	"leashedsgd/internal/paramvec"
)

// leashedStrategy is Leashed-SGD (Algorithm 3) under the unified worker
// loop, parameterized over paramvec.ParamStore — ONE implementation covers
// the paper's single chain (Config.Shards <= 1) and the sharded store
// (Shards > 1), both the chain store paramvec.ShardedShared. The store is
// built once at start (shardEpoch, epoch.go) and serves the whole run, so
// an iteration takes no lock around it.
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
//  4. on a lost attempt, retries up to the persistence bound Tp
//     (Config.Persistence), after which that chain's gradient segment is
//     dropped and the vector recycled (contention regulation, Sec. IV-2);
//     replaced vectors are marked stale and recycled once the last reader
//     leaves (paper P2, P4).
//
// The global update counter advances once per iteration that published at
// least one chain; an iteration that published nothing refunds its budget
// reservation so MaxUpdates stays exact. Staleness and contention are
// counted per chain in the shardEpoch.
type leashedStrategy struct {
	nopHooks
	rt   *runCtx
	e    *shardEpoch // the run's one store and its per-chain counters
	seqs []int64     // monitor snapshot seq reuse
}

// newLeashedStrategy publishes θ0 into the run's store and hands the init
// vector's buffer back to the pool.
func (rt *runCtx) newLeashedStrategy(initVec *paramvec.Vector) *leashedStrategy {
	rt.epoch = newShardEpoch(rt.d, rt.numShards(), initVec.Theta)
	initVec.Release()
	return &leashedStrategy{rt: rt, e: rt.epoch}
}

func (st *leashedStrategy) setup(w *loopWorker) {
	w.velocity = st.rt.maybeVelocity()
}

func (st *leashedStrategy) begin(w *loopWorker) bool { return st.rt.defaultBegin() }

// read leases the chains' latest vectors — the zero-copy gradient view.
func (st *leashedStrategy) read(w *loopWorker) paramvec.View {
	pv := w.lease.Acquire(st.e.store)
	w.leaseHeld = true
	return pv
}

// endRead releases the lease and tallies the consistency classification —
// per-worker counts plus the per-chain stale-read breakdown for mixed reads.
func (st *leashedStrategy) endRead(w *loopWorker) {
	w.leaseHeld = false
	if w.lease.Release() {
		w.tally.consistent.Add(1)
		return
	}
	w.tally.mixed.Add(1)
	for _, c := range w.lease.AdvancedChains() {
		st.e.rstale[c].n.Add(1)
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
	e := st.e
	store := e.store
	C := store.Chains()
	bound := rt.cfg.Persistence

	// Claim a budget unit before anything becomes visible; when the budget
	// is fully claimed the gradient is discarded and the loop gate
	// re-checks the stop conditions (resuming only if a claim is refunded).
	if !rt.reserveUpdate() {
		return false
	}
	w.reserved = true

	publishedAny := false
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
					if bound >= 0 && tries > bound {
						newSeg.Release()
						e.dropped[c].n.Add(1)
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
				break
			}
			e.failed[c].n.Add(1)
			tries++
			if bound >= 0 && tries > bound {
				newSeg.Release()
				e.dropped[c].n.Add(1)
				break
			}
			if rt.stop.Load() {
				newSeg.Release()
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
	return true
}

// pinStore returns the run's store for an outside reader — a ReadFront
// fold, or a serving lease's Acquire. Nothing swaps the store mid-run, so
// the release is a no-op; the end-of-run teardown is ordered by the caller
// (Running.readMu and the front freeze in Running.finish).
func (st *leashedStrategy) pinStore() (paramvec.ParamStore, func()) {
	return st.e.store, func() {}
}

// snapshot copies the published parameters; the per-chain sequence slice is
// hoisted and reused across monitor ticks.
func (st *leashedStrategy) snapshot(dst []float64) {
	st.seqs = st.e.store.Snapshot(dst, st.seqs)
}

// snapshotConsistent retries the store snapshot under seqlock validation so a
// checkpoint captures a true cross-chain global state, not a skewed mix. On
// attempt exhaustion under heavy publish pressure the last (per-chain untorn)
// copy stands — same guarantee as snapshot.
func (st *leashedStrategy) snapshotConsistent(dst []float64) {
	st.e.store.SnapshotConsistent(dst, 8)
}

// recoverIter rolls back a panicked iteration: the lease is released first,
// then the budget reservation is refunded.
func (st *leashedStrategy) recoverIter(w *loopWorker) {
	if w.leaseHeld {
		w.leaseHeld = false
		w.lease.Release()
	}
	if w.reserved {
		w.reserved = false
		st.rt.refundUpdate()
	}
}

func (st *leashedStrategy) fill(res *Result) { st.e.fill(res) }

func (st *leashedStrategy) cleanup() { st.e.store.Retire() }
