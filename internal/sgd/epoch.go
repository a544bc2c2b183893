package sgd

import (
	"leashedsgd/internal/paramvec"
)

// shardEpoch is a Leashed run's publication state — the ParamStore built at
// start with Config.Shards chains — plus its per-chain instrumentation. It is
// the run's store for the whole run: nothing swaps it, so workers, the
// monitor and outside readers reach it without a lock.
type shardEpoch struct {
	store                       paramvec.ParamStore
	failed, dropped, pub, stale []paddedCounter
	// rstale counts, per chain, the leased reads during which that chain's
	// head advanced (the per-chain decomposition of a mixed-version read).
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
		failed, dropped, pub := e.failed[s].n.Load(), e.dropped[s].n.Load(), e.pub[s].n.Load()
		touched := e.touched[s].n.Load()
		if S > 1 {
			res.ShardFailedCAS[s] = failed
			res.ShardDropped[s] = dropped
			res.ShardPublishes[s] = pub
			res.ShardStaleReads[s] = e.rstale[s].n.Load()
			res.ShardTouched[s] = touched
			if pub > 0 {
				res.ShardStalenessMean[s] = float64(e.stale[s].n.Load()) / float64(pub)
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
