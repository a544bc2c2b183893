package sgd

import "leashedsgd/internal/paramvec"

// shardEpoch bundles one generation of publication state — a ParamStore —
// with its per-chain instrumentation. The static Leashed launcher keeps a
// single epoch for the whole run; the autotuning controller (autotune.go)
// retires the epoch and installs a fresh one, with a different chain count,
// each time it re-shards. HOGWILD!'s
// sharded traversal reuses the counter half only (store nil) for its
// per-shard sweep counts.
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
	// the contention counters and windowed by the autotune controller.
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
// the epoch's per-chain sum; callers with cross-epoch history (the
// autotuner) layer their accumulators on top.
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

// foldTotals folds the epoch's counters into res's aggregate contention
// totals WITHOUT attaching a per-shard breakdown — the single-chain static
// run, whose Result contract keeps the Shard* slices nil.
func (e *shardEpoch) foldTotals(res *Result) {
	res.Publishes = 0
	for s := range e.failed {
		res.FailedCAS += e.failed[s].n.Load()
		res.DroppedUpdates += e.dropped[s].n.Load()
		res.Publishes += e.pub[s].n.Load()
		res.TouchedComponents += e.touched[s].n.Load()
	}
}

// poolEquivalents returns a store's pool accounting in full-vector
// equivalents: C chain buffers hold one vector's worth of parameters, so
// peak and allocation counts round up and reuse counts round down. For the
// single-chain store (C = 1) the accounting is exact.
func poolEquivalents(st paramvec.ParamStore) (peak, allocs, reuses int64) {
	c := int64(st.Chains())
	return (st.Peak() + c - 1) / c, (st.Allocs() + c - 1) / c, st.Reuses() / c
}
