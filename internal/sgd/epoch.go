package sgd

import (
	"sync"
	"sync/atomic"

	"leashedsgd/internal/paramvec"
)

// shardEpoch bundles one generation of publication state — a ParamStore —
// with its per-chain instrumentation. Every Leashed run's epoch owner
// (epochs) holds one live epoch; a run with a controller retires it and
// installs a fresh one, with a different chain count, each time it
// re-shards.
type shardEpoch struct {
	store                       paramvec.ParamStore
	failed, dropped, pub, stale []paddedCounter
	// rstale counts, per chain, the leased reads during which that chain's
	// head advanced (the per-chain decomposition of a mixed-version read —
	// the staleness accounting the Tp autotuning axis is steered by).
	rstale []paddedCounter
	// touched counts, per chain, the parameter components written by
	// successful publishes — the chain's full length per dense publish,
	// only the hit components per sparse scatter-publish. The occupancy
	// signal (touched per publish per chain length) is reported next to
	// the contention counters.
	touched []paddedCounter
}

// newShardEpoch builds the chain store for the given chain count
// (paramvec.NewStore), publishes theta into it, and allocates fresh
// per-chain counters.
func newShardEpoch(dim, chains int, theta []float64) *shardEpoch {
	st := paramvec.NewStore(dim, chains)
	st.PublishInit(theta)
	n := st.Chains()
	return &shardEpoch{
		store:   st,
		failed:  newCounters(n),
		dropped: newCounters(n),
		pub:     newCounters(n),
		stale:   newCounters(n),
		rstale:  newCounters(n),
		touched: newCounters(n),
	}
}

// rollup fills res's per-shard breakdown from the epoch's counters and folds
// the sums into the aggregate contention totals. res.Publishes is reset to
// the epoch's per-chain sum; the epoch owner then overwrites the totals with
// its cross-epoch accumulators.
func (e *shardEpoch) rollup(res *Result) {
	S := len(e.failed)
	res.ShardFailedCAS = make([]int64, S)
	res.ShardDropped = make([]int64, S)
	res.ShardPublishes = make([]int64, S)
	res.ShardStalenessMean = make([]float64, S)
	res.ShardStaleReads = make([]int64, S)
	res.ShardTouched = make([]int64, S)
	res.Publishes = 0
	for s := 0; s < S; s++ {
		res.ShardFailedCAS[s] = e.failed[s].n.Load()
		res.ShardDropped[s] = e.dropped[s].n.Load()
		res.ShardPublishes[s] = e.pub[s].n.Load()
		res.ShardStaleReads[s] = e.rstale[s].n.Load()
		res.ShardTouched[s] = e.touched[s].n.Load()
		if pub := res.ShardPublishes[s]; pub > 0 {
			res.ShardStalenessMean[s] = float64(e.stale[s].n.Load()) / float64(pub)
		}
		res.FailedCAS += res.ShardFailedCAS[s]
		res.DroppedUpdates += res.ShardDropped[s]
		res.Publishes += res.ShardPublishes[s]
		res.TouchedComponents += res.ShardTouched[s]
	}
}

// epochs owns the live shard epoch of a Leashed run plus the cross-epoch
// accounting — one owner for every Leashed and LeashedAdaptive run. Since
// the worker loop is parameterized over paramvec.ParamStore, a re-shard is a
// generic store swap: snapshot the old epoch's store, build the chain store
// for the new chain count (paramvec.NewStore, one chain when the controller
// descends to S = 1), republish, retire. The RWMutex is the quiescing
// barrier: workers hold the read side for exactly one iteration, the
// controller takes the write side to re-shard, which by construction waits
// until every in-flight iteration has drained and blocks new ones — at that
// point there are no publishers, so a consistent snapshot validates on the
// first attempt. A Tp move needs no barrier at all: the controller stores the
// new bound and every worker loads it at its next iteration begin.
//
// A static run is this owner with no policy: no controller goroutine, no
// trajectories, no re-shard carrier, and the bound seeded from
// Config.Persistence for the whole run.
type epochs struct {
	mu    sync.RWMutex
	epoch *shardEpoch

	// bound is the persistence bound Tp the workers load at each iteration
	// begin (LeashedAdaptive's per-worker bounds are seeded from
	// Config.Persistence instead and never read it).
	bound atomic.Int64
	// policy is the controller's decision core (autotune.go): the ladder,
	// or the model tuner in front of it. nil for a static run.
	policy policy
	// tpFrozen marks LeashedAdaptive, whose per-worker bound adaptation
	// owns Tp: the controller moves the S axis only.
	tpFrozen     bool
	trajectory   []int
	tpTrajectory []int
	buf          []float64 // re-shard snapshot carrier (full dimension); controlled runs only

	// Cross-epoch accumulators, fed by every retired epoch and, at fill,
	// by the final one: contention totals, and pool accounting in
	// full-vector equivalents (peak is a max across epochs — they are
	// disjoint in time; allocations and reuses accumulate).
	failedAcc, droppedAcc, pubAcc, touchedAcc int64
	peakEq, allocsEq, reusesEq                int64
}

// newEpochs builds a Leashed run's epoch owner and publishes theta into its
// first epoch. Under TuneOff the owner has no policy: S is the configured
// shard count for the whole run. Otherwise the ladder — behind the model
// tuner under TuneModel — snaps (Shards, Persistence) to its starting point,
// and both trajectories are recorded from there.
func (rt *runCtx) newEpochs(theta []float64) *epochs {
	cfg := rt.cfg
	ep := &epochs{tpFrozen: cfg.Algo == LeashedAdaptive}
	ep.bound.Store(int64(cfg.Persistence))
	s := rt.numShards()
	if cfg.Tune != TuneOff {
		ladder := newTuner(cfg.Shards, min(tuneMaxShards, rt.d), cfg.Persistence, tuneMaxTp, ep.tpFrozen)
		ep.policy = ladder
		if cfg.Tune == TuneModel {
			mt := newModelTuner(cfg.Workers, ladder.s.ladder, ladder.tp.ladder, ep.tpFrozen)
			mt.ladder = ladder
			ep.policy = mt
		}
		s = ladder.s.value()
		ep.trajectory = []int{s}
		if !ep.tpFrozen {
			// A frozen Tp axis records no trajectory: the workers' bounds
			// are the per-worker adaptive values seeded from Persistence,
			// so a ladder-clamped "start" here would report a bound that
			// was never in effect.
			ep.bound.Store(int64(ladder.tp.value()))
			ep.tpTrajectory = []int{ladder.tp.value()}
		}
		ep.buf = make([]float64, rt.d)
	}
	ep.epoch = newShardEpoch(rt.d, s, theta)
	return ep
}

// point returns the live operating point: the epoch's chain count, read
// under the epoch lock, and the current bound.
func (ep *epochs) point() (s, tp int) {
	ep.mu.RLock()
	s = ep.epoch.store.Chains()
	ep.mu.RUnlock()
	return s, int(ep.bound.Load())
}

// totals returns the run-wide failed-CAS and publish counts (retired epochs
// plus the live one) — the S axis's windowed-rate inputs.
func (ep *epochs) totals() (failed, pubs int64) {
	ep.mu.RLock()
	defer ep.mu.RUnlock()
	failed, pubs = ep.failedAcc, ep.pubAcc
	e := ep.epoch
	for s := range e.failed {
		failed += e.failed[s].n.Load()
		pubs += e.pub[s].n.Load()
	}
	return failed, pubs
}

// liveEq is the live chain-buffer gauge in full-vector equivalents.
func (ep *epochs) liveEq() int64 {
	ep.mu.RLock()
	defer ep.mu.RUnlock()
	c := int64(ep.epoch.store.Chains())
	return (ep.epoch.store.Live() + c - 1) / c
}

// foldRetired rolls a retiring epoch's counters and pool accounting into the
// cross-epoch accumulators. Caller holds the write lock, or is fill. C chain
// buffers hold one vector's worth of parameters, so peak and allocation
// counts round up and reuse counts round down (exact at C = 1).
func (ep *epochs) foldRetired(e *shardEpoch) {
	for s := range e.failed {
		ep.failedAcc += e.failed[s].n.Load()
		ep.droppedAcc += e.dropped[s].n.Load()
		ep.pubAcc += e.pub[s].n.Load()
		ep.touchedAcc += e.touched[s].n.Load()
	}
	c := int64(e.store.Chains())
	ep.peakEq = max(ep.peakEq, (e.store.Peak()+c-1)/c)
	ep.allocsEq += (e.store.Allocs() + c - 1) / c
	ep.reusesEq += e.store.Reuses() / c
}

// reshard quiesces the workers, carries the parameters from the old epoch's
// store into the chain store for newS chains, and retires the old one —
// the generic store swap.
func (ep *epochs) reshard(rt *runCtx, newS int) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	old := ep.epoch
	// Every worker is quiesced behind the write lock, so no publisher can
	// interleave and validation succeeds on the first attempt; the attempt
	// budget only guards the (unreachable) racing case, in which the last
	// per-chain-untorn copy is still a correct parameter state to carry.
	old.store.SnapshotConsistent(ep.buf, 4)
	ep.foldRetired(old)
	old.store.Retire()
	ep.epoch = newShardEpoch(rt.d, newS, ep.buf)
	ep.trajectory = append(ep.trajectory, ep.epoch.store.Chains())
}

// retune publishes a new persistence bound: an atomic store every worker
// picks up at its next iteration begin — no barrier, no epoch swap.
func (ep *epochs) retune(newTp int) {
	ep.bound.Store(int64(newTp))
	ep.tpTrajectory = append(ep.tpTrajectory, newTp)
}

// fill records the run's epoch measurements into res: the final epoch's
// per-shard breakdown (none for a single-chain static run, whose Result
// contract keeps the Shard* slices nil), the contention totals and the chain
// pools' memory accounting across every epoch (per-chain peaks are an upper
// bound on the true simultaneous peak; allocation counts are exact), and the
// trajectories and model record of a controlled run. Called once, after the
// workers and the controller have exited; no locking needed.
func (ep *epochs) fill(res *Result) {
	e := ep.epoch
	if ep.policy != nil || len(e.pub) > 1 {
		e.rollup(res)
	}
	ep.foldRetired(e) // the final epoch joins the accumulators
	res.Shards = e.store.Chains()
	res.FailedCAS, res.DroppedUpdates = ep.failedAcc, ep.droppedAcc
	res.Publishes, res.TouchedComponents = ep.pubAcc, ep.touchedAcc
	res.PeakLiveVectors += ep.peakEq
	res.BufferAllocs += ep.allocsEq
	res.BufferReuses += ep.reusesEq
	res.ShardTrajectory = append([]int(nil), ep.trajectory...)
	res.Reshards = max(len(ep.trajectory)-1, 0)
	res.TpTrajectory = append([]int(nil), ep.tpTrajectory...)
	if mt, ok := ep.policy.(*modelTuner); ok {
		finalTp := int(ep.bound.Load())
		if ep.tpFrozen {
			finalTp = PersistenceInf
		}
		res.ModelFit = mt.result(res.Shards, finalTp)
	}
}
