package sgd

import (
	"sync/atomic"

	"leashedsgd/internal/faultinject"
	"leashedsgd/internal/paramvec"
)

// leashedStrategy is Leashed-SGD (Algorithm 3) under the unified worker
// loop over the chain store paramvec.Store — ONE implementation covers the
// paper's single chain (Config.Shards <= 1) and the sharded store (Shards >
// 1). The store is built once at start (newLeashedStrategy) and serves the
// whole run, so an iteration takes no lock around it.
//
// Per iteration a worker, having sampled its minibatch:
//
//  1. leases the latest published vector of every chain the step can write
//     — only those a sparse minibatch's examples index, every chain for a
//     dense step — with the lock-free latest_pointer protocol
//     (paramvec.Lease) and computes its gradient DIRECTLY against the
//     published segments through the stitched read-only view — zero-copy
//     reads (paper P3) on every store, including the sharded one;
//  2. checks the lease, which validates the leased chains' sequence numbers
//     (a seqlock over the chains) and classifies the read as provably
//     consistent or possibly mixed-version (Result.ConsistentReads /
//     MixedReads), and keeps the registrations;
//  3. enters the LAU-SPC loop per chain the step writes, traversing them in
//     a rotated order (from the first chain ≥ worker id mod C) so concurrent
//     workers spread over the chains instead of marching through them in
//     lockstep: check out a chain vector, build the latest published
//     segment minus η·gradient into it, and try to publish with a single
//     CAS (paper P1, P5). The first attempt builds on the leased vector
//     itself when it is still the head — the paper's own read, with no
//     second registration — and the chain's registration ends with its
//     publish loop, so the replaced head can be recycled at once;
//  4. on a lost attempt, retries from the new head up to the persistence
//     bound Tp (Config.Persistence), after which that chain's gradient
//     segment is dropped and the vector recycled (contention regulation,
//     Sec. IV-2); replaced vectors are marked stale and recycled once the
//     last reader leaves (paper P2, P4).
//
// The global update counter advances once per iteration that published at
// least one chain; an iteration that published nothing refunds its budget
// reservation so MaxUpdates stays exact. Staleness, contention and read
// consistency are counted per chain and per worker slot in the strategy.
type leashedStrategy struct {
	rt    *runCtx
	store *paramvec.Store // the run's one store, built at start
	// failed and dropped count, per chain, lost publish attempts and
	// segments dropped at the persistence bound; rstale counts the leased
	// reads during which that chain's head advanced (the per-chain
	// decomposition of a mixed-version read).
	failed, dropped, rstale []paddedCounter
	// tallies and reads hold each worker slot's per-chain publish counts
	// and leased-read classification, written only by that slot's worker
	// and summed in fill once the workers have exited.
	tallies []chainTally
	reads   []readTally
	seqs    []int64 // monitor snapshot seq reuse
}

// chainTally is one worker slot's per-chain publish counts: successful
// publishes, the components they wrote (the chain's full length per dense
// publish, only the hit components per sparse scatter-publish — the
// occupancy signal reported next to the contention counters) and the summed
// staleness τ of those publishes.
type chainTally struct {
	pub, touched, stale []int64
}

// readTally is one worker slot's leased-read classification counters, padded
// so neighbouring workers' tallies never share a cache line.
type readTally struct {
	consistent, mixed atomic.Int64
	_                 [112]byte
}

// paddedCounter is an atomic counter padded to a full cache-line pair.
type paddedCounter struct {
	n atomic.Int64
	_ [120]byte
}

// newLeashedStrategy builds the run's chain store with the effective shard
// count (paramvec.NewStore), publishes θ0 into it, hands the init vector's
// buffer back to the pool and allocates the per-chain and per-worker
// counters.
func (rt *runCtx) newLeashedStrategy(initVec *paramvec.Vector) *leashedStrategy {
	store := paramvec.NewStore(rt.d, rt.numShards())
	store.PublishInit(initVec.Theta)
	initVec.Release()
	rt.store = store
	n := store.Chains()
	st := &leashedStrategy{
		rt:      rt,
		store:   store,
		failed:  make([]paddedCounter, n),
		dropped: make([]paddedCounter, n),
		rstale:  make([]paddedCounter, n),
		tallies: make([]chainTally, rt.cfg.Workers),
		reads:   make([]readTally, rt.cfg.Workers),
	}
	for i := range st.tallies {
		st.tallies[i] = chainTally{pub: make([]int64, n), touched: make([]int64, n), stale: make([]int64, n)}
	}
	return st
}

func (st *leashedStrategy) setup(w *loopWorker) {
	w.support = newChainSet(st.store.Offsets())
	w.wins = make([]chainWin, 0, st.store.Chains())
}

// read leases the chains the sampled step can write — the zero-copy
// gradient view.
func (st *leashedStrategy) read(w *loopWorker) paramvec.View {
	var pv paramvec.View
	if w.gw.support(&w.support) {
		pv = w.lease.AcquireChains(st.store, w.support.take())
	} else {
		pv = w.lease.Acquire(st.store)
	}
	w.leaseHeld = true
	return pv
}

// endRead checks the lease and tallies the consistency classification —
// per-worker counts plus the per-chain stale-read breakdown for mixed reads.
// The registrations stay for commit.
func (st *leashedStrategy) endRead(w *loopWorker) {
	t := &st.reads[w.id]
	if w.lease.Check() {
		t.consistent.Add(1)
		return
	}
	t.mixed.Add(1)
	for _, c := range w.lease.AdvancedChains() {
		st.rstale[c].n.Add(1)
	}
}

// dropLease ends whatever registrations the worker's lease still holds.
func (st *leashedStrategy) dropLease(w *loopWorker) {
	if w.leaseHeld {
		w.leaseHeld = false
		w.lease.Drop()
	}
}

// commit runs the per-chain LAU-SPC publish loops under one reserved unit of
// the update budget. The loop is representation-generic: step.windows lists
// the chains the step writes, each with its window of the step's entries, in
// one pass — every chain for a dense step, only the hit chains for a sparse
// one (the scatter-publish win: a sparse step touches ~min(S, B·NNZ) of the
// S chains, and untouched chains see no CAS, no copy and no pool traffic).
func (st *leashedStrategy) commit(w *loopWorker, s step) bool {
	rt := st.rt

	// Claim a budget unit before anything becomes visible; when the budget
	// is fully claimed the gradient is discarded and the loop gate
	// re-checks the stop conditions (resuming only if a claim is refunded).
	if !rt.reserveUpdate() {
		st.dropLease(w)
		return false
	}
	w.reserved = true

	wins := s.windows(st.store.Offsets(), w.wins[:0])
	w.wins = wins
	first := w.id % st.store.Chains()
	start := 0
	for start < len(wins) && wins[start].c < first {
		start++
	}
	tally := &st.tallies[w.id]
	publishedAny := false
	for k := range wins {
		i := start + k
		if i >= len(wins) {
			i -= len(wins)
		}
		if st.publish(w, s, wins[i], tally) {
			publishedAny = true
		}
	}
	st.dropLease(w)
	if publishedAny {
		rt.applyUpdate()
	} else {
		rt.refundUpdate()
	}
	w.reserved = false
	return true
}

// publish runs chain win.c's LAU-SPC loop and reports whether the chain
// published. Each attempt folds the step's window through step.publishChain
// (one fused whole-segment pass for dense, base-shifted sparse scatter for
// CSR). A false from publishChain is a lost attempt — a failed CAS or a
// dense pass abandoned because its head was replaced — and the accounting
// below does not tell them apart.
func (st *leashedStrategy) publish(w *loopWorker, s step, win chainWin, tally *chainTally) bool {
	rt := st.rt
	store, c := st.store, win.c
	bound := rt.cfg.Persistence
	readT := w.lease.Seq(c)
	// The leased head, registered since the read: the first attempt's
	// expected vector while it is still the head. A registered vector
	// cannot be recycled, so comparing it with P is exact. One already
	// replaced is dropped before the checkout, so that — just read by the
	// gradient, and likely still in this core's cache — it can come back
	// as the new vector.
	cur := w.lease.Take(c)
	var nv *paramvec.Vector
	// cur is this attempt's registered head until publishChain returns and nv
	// the private vector until it is published or released; the defer ends
	// that registration and discards nv on a panic's unwind (a half-written
	// buffer must never be parked for reuse).
	defer func() {
		if cur != nil {
			cur.StopReading()
		}
		if nv != nil {
			nv.Discard()
		}
	}()
	if cur != nil && store.ChainPeek(c) != cur {
		cur.StopReading()
		cur = nil
	}
	nv = store.NewChainVec(c)
	for tries := 0; ; {
		if inj := rt.inj; inj != nil {
			// Injected publish failure: burns a persistence-bound try
			// exactly like a lost CAS, so bursts drive the drop/recycle
			// path without touching the store.
			if f := inj.Decide(faultinject.Publish); f.Kind == faultinject.KindFail {
				st.failed[c].n.Add(1)
				tries++
				if bound >= 0 && tries > bound {
					st.dropped[c].n.Add(1)
					break
				}
				continue
			}
		}
		if cur == nil || store.ChainPeek(c) != cur {
			if cur != nil {
				cur.StopReading()
			}
			cur = store.ChainLatest(c)
		}
		// Staleness estimate at apply time: publishes between the
		// gradient's source vector and the head we fold onto, in this
		// chain's own sequence numbers.
		tau := cur.T - readT
		ok := s.publishChain(store, c, win.a, win.b, cur, nv, rt.adaptedEta(tau))
		cur.StopReading()
		cur = nil
		if ok {
			nv = nil
			tally.pub[c]++
			tally.touched[c] += int64(win.b - win.a)
			tally.stale[c] += tau
			w.hist.Observe(tau)
			return true
		}
		st.failed[c].n.Add(1)
		tries++
		if bound >= 0 && tries > bound {
			st.dropped[c].n.Add(1)
			break
		}
		if rt.stop.Load() {
			break
		}
	}
	nv.Release()
	nv = nil
	return false
}

// snapshot copies the published parameters; the per-chain sequence slice is
// hoisted and reused across monitor ticks.
func (st *leashedStrategy) snapshot(dst []float64) {
	st.seqs = st.store.Snapshot(dst, st.seqs)
}

// snapshotConsistent folds the store into dst from a cold baseline so a
// checkpoint captures a true cross-chain global state, not a skewed mix. At
// the pass bound under heavy publish pressure the last (per-chain untorn)
// copy stands — same guarantee as snapshot.
func (st *leashedStrategy) snapshotConsistent(dst []float64) {
	st.store.SnapshotConsistent(dst, nil)
}

// recoverIter ends the lease a panicked iteration still holds; the loop
// refunds its budget reservation.
func (st *leashedStrategy) recoverIter(w *loopWorker) { st.dropLease(w) }

// sums returns chain c's publish counts summed over the worker slots.
func (st *leashedStrategy) sums(c int) (pub, touched, stale int64) {
	for i := range st.tallies {
		t := &st.tallies[i]
		pub, touched, stale = pub+t.pub[c], touched+t.touched[c], stale+t.stale[c]
	}
	return pub, touched, stale
}

// fill records the run's store measurements into res once the workers have
// exited: the leased-read classification, the per-shard breakdown (none for
// a single-chain run, whose Result contract keeps the Shard* slices nil), the
// contention totals, and the chain pools' memory accounting in full-vector
// equivalents. C chain buffers hold one vector's worth of parameters, so peak
// and allocation counts round up and reuse counts round down (exact at
// C = 1); per-chain peaks are an upper bound on the true simultaneous peak.
func (st *leashedStrategy) fill(res *Result) {
	for i := range st.reads {
		res.ConsistentReads += st.reads[i].consistent.Load()
		res.MixedReads += st.reads[i].mixed.Load()
	}
	S := len(st.failed)
	if S > 1 {
		res.ShardFailedCAS = make([]int64, S)
		res.ShardDropped = make([]int64, S)
		res.ShardPublishes = make([]int64, S)
		res.ShardStalenessMean = make([]float64, S)
		res.ShardStaleReads = make([]int64, S)
		res.ShardTouched = make([]int64, S)
	}
	res.FailedCAS, res.DroppedUpdates, res.Publishes, res.TouchedComponents = 0, 0, 0, 0
	for s := 0; s < S; s++ {
		failed, dropped := st.failed[s].n.Load(), st.dropped[s].n.Load()
		pub, touched, stale := st.sums(s)
		if S > 1 {
			res.ShardFailedCAS[s] = failed
			res.ShardDropped[s] = dropped
			res.ShardPublishes[s] = pub
			res.ShardStaleReads[s] = st.rstale[s].n.Load()
			res.ShardTouched[s] = touched
			if pub > 0 {
				res.ShardStalenessMean[s] = float64(stale) / float64(pub)
			}
		}
		res.FailedCAS += failed
		res.DroppedUpdates += dropped
		res.Publishes += pub
		res.TouchedComponents += touched
	}
	c := int64(S)
	res.Shards = S
	res.PeakLiveVectors += (st.store.Peak() + c - 1) / c
	res.BufferAllocs += (st.store.Allocs() + c - 1) / c
	res.BufferReuses += st.store.Reuses() / c
}

func (st *leashedStrategy) cleanup() { st.store.Retire() }
