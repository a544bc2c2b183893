package sgd

import (
	"leashedsgd/internal/paramvec"
)

// shardEpoch is a Leashed run's publication state — the chain store built at
// start with Config.Shards chains — plus its per-chain instrumentation. It is
// the run's store for the whole run: nothing swaps it, so workers, the
// monitor and outside readers reach it without a lock.
type shardEpoch struct {
	store           *paramvec.Store
	failed, dropped []paddedCounter
	// rstale counts, per chain, the leased reads during which that chain's
	// head advanced (the per-chain decomposition of a mixed-version read).
	rstale []paddedCounter
	// tallies holds each worker slot's per-chain publish counts, written
	// only by that slot's worker and summed in fill once the workers have
	// exited: plain counts, no shared write on the publish path.
	tallies []chainTally
}

// chainTally is one worker slot's per-chain publish counts: successful
// publishes, the components they wrote (the chain's full length per dense
// publish, only the hit components per sparse scatter-publish — the
// occupancy signal reported next to the contention counters) and the summed
// staleness τ of those publishes.
type chainTally struct {
	pub, touched, stale []int64
}

// newShardEpoch builds the chain store for the given chain count
// (paramvec.NewStore), publishes theta into it, and allocates fresh
// per-chain counters for workers worker slots.
func newShardEpoch(dim, chains, workers int, theta []float64) *shardEpoch {
	st := paramvec.NewStore(dim, chains)
	st.PublishInit(theta)
	n := st.Chains()
	e := &shardEpoch{
		store:   st,
		failed:  newCounters(n),
		dropped: newCounters(n),
		rstale:  newCounters(n),
		tallies: make([]chainTally, workers),
	}
	for i := range e.tallies {
		e.tallies[i] = chainTally{pub: make([]int64, n), touched: make([]int64, n), stale: make([]int64, n)}
	}
	return e
}

// sums returns chain c's publish counts summed over the worker slots.
func (e *shardEpoch) sums(c int) (pub, touched, stale int64) {
	for i := range e.tallies {
		t := &e.tallies[i]
		pub, touched, stale = pub+t.pub[c], touched+t.touched[c], stale+t.stale[c]
	}
	return pub, touched, stale
}

// liveEq is the live chain-buffer gauge in full-vector equivalents.
func (e *shardEpoch) liveEq() int64 {
	c := int64(e.store.Chains())
	return (e.store.Live() + c - 1) / c
}

// fill records the run's store measurements into res once the workers have
// exited: the per-shard breakdown (none for a single-chain run, whose Result
// contract keeps the Shard* slices nil), the contention totals, and the
// chain pools' memory accounting in full-vector equivalents. C chain buffers
// hold one vector's worth of parameters, so peak and allocation counts round
// up and reuse counts round down (exact at C = 1); per-chain peaks are an
// upper bound on the true simultaneous peak.
func (e *shardEpoch) fill(res *Result) {
	S := len(e.failed)
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
		failed, dropped := e.failed[s].n.Load(), e.dropped[s].n.Load()
		pub, touched, stale := e.sums(s)
		if S > 1 {
			res.ShardFailedCAS[s] = failed
			res.ShardDropped[s] = dropped
			res.ShardPublishes[s] = pub
			res.ShardStaleReads[s] = e.rstale[s].n.Load()
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
	res.PeakLiveVectors += (e.store.Peak() + c - 1) / c
	res.BufferAllocs += (e.store.Allocs() + c - 1) / c
	res.BufferReuses += e.store.Reuses() / c
}
