package paramvec

// ParamStore is the publication surface every SGD launcher programs against:
// a parameter vector published as one or more independent lock-free
// latest-pointer chains. ShardedShared implements it; with one chain it is
// exactly the paper's Algorithm 3 (one published pointer P over the whole
// vector). The worker loop in internal/sgd, the monitor's snapshots and the
// memory accounting are written against the interface, so tests can wrap a
// store to count or perturb its calls.
//
// A "chain" is one independently published contiguous range of the flat
// vector, held in one Shared cell. Reads lease the chains' latest vectors
// zero-copy via Lease; publishes run the LAU-SPC CAS per chain via
// ChainTryPublish.
type ParamStore interface {
	// Dim is the full flat-vector dimension d.
	Dim() int
	// Chains is the number of independent publish chains S ≥ 1.
	Chains() int
	// ChainRange is chain c's half-open interval of the flat vector.
	ChainRange(c int) Range
	// NewChainVec checks a chain-c-sized vector out of that chain's buffer
	// pool (the LAU-SPC copy target). A recycled buffer is an older version
	// of the same chain and remembers which one.
	NewChainVec(c int) *Vector
	// ChainLatest acquires chain c's latest published vector under the
	// lock-free read-protection protocol; the caller must StopReading it.
	ChainLatest(c int) *Vector
	// ChainTryPublish runs the single-CAS publish step on chain c: on
	// success the replaced vector is retired for recycling.
	ChainTryPublish(c int, expected, v *Vector) bool
	// ChainTryPublishSparse is the scatter-publish step of the sparse delta
	// path: one LAU-SPC attempt on chain c that brings the private vector v
	// up to expected (at the components changed since v's version, see
	// Shared.TryPublishSparse), folds in the sparse delta — store-absolute
	// CSR indices restricted to ChainRange(c), shifted to chain-local
	// positions internally — and publishes with the same single CAS as
	// ChainTryPublish. The caller read-protects expected for the whole call.
	// Sparse workers call this only for the chains their minibatch's
	// nonzeros hit; untouched chains see no CAS, no copy and no pool traffic.
	ChainTryPublishSparse(c int, expected, v *Vector, idx []int32, val []float64, eta float64) bool
	// ChainPeek returns chain c's published vector WITHOUT read
	// protection (monitoring and seqlock validation only).
	ChainPeek(c int) *Vector
	// PublishInit slices theta across the chains and publishes each
	// segment unconditionally (initialization only).
	PublishInit(theta []float64)
	// Snapshot copies every chain's latest published segment into dst
	// under read protection and returns the per-chain sequence numbers.
	// Each segment is untorn; chains may come from different global
	// moments (cross-chain skew). seqs is reused when it has capacity.
	Snapshot(dst []float64, seqs []int64) []int64
	// SnapshotConsistent retries Snapshot with seqlock validation until no
	// chain published mid-copy (a true global state) or attempts run out. A
	// one-chain snapshot is one immutable vector: ok on the first attempt.
	SnapshotConsistent(dst []float64, attempts int) ([]int64, bool)
	// Live, Peak, Allocs and Reuses aggregate the chains' buffer-pool
	// gauges, in chain-buffer units (divide by Chains for full-vector
	// equivalents).
	Live() int64
	Peak() int64
	Allocs() int64
	Reuses() int64
	// Retire marks every chain's published vector stale and offers it for
	// recycling, and marks the store itself retired (end-of-run cleanup:
	// the gauges drain to zero once the last reader leaves). After Retire,
	// new Lease.Acquire calls panic — the latest-pointer loop on an
	// all-stale chain would never terminate — and buffers released by late
	// lease holders are dropped, not recycled into the dead pools.
	Retire()
	// Retired reports whether Retire has run. A lease that was acquired
	// before and released after retirement uses this to label itself as a
	// read of a dead epoch (Lease.RetiredStore).
	Retired() bool
	// SetPoison enables buffer poisoning on every chain pool (tests only).
	SetPoison(on bool)
}

// NewStore builds the store for a dim-dimensional vector split into chains
// publish chains (clamped to [1, dim]). One chain is the paper's single
// published pointer P.
func NewStore(dim, chains int) ParamStore {
	return NewSharded(dim, chains)
}

// NewSingle is the one-chain store, NewSharded(dim, 1).
func NewSingle(dim int) *ShardedShared { return NewSharded(dim, 1) }

// --- Leased zero-copy reads ------------------------------------------------

// Lease is a reusable, allocation-free handle on one leased read of every
// chain's latest published vector. Acquire registers the caller as a reader
// of each chain (Algorithm 3's latest_pointer per chain), so none of the
// leased buffers can be recycled until Release — the caller computes its
// gradient DIRECTLY against the published segments through the returned
// View, with no private copy of θ. This restores the paper's zero-copy read
// (P3) on the sharded store, which PR 1 traded away for a copy-per-read.
//
// Release re-checks every chain's published head against the leased one (a
// seqlock over the chains): if no chain published during the window the read
// was provably one global state (consistent); otherwise different chains may
// mix versions (the cross-shard skew the PR-1 trade-off documented). The
// classification feeds Result.ConsistentReads/MixedReads in internal/sgd.
//
// A Lease is owned by one goroutine; after the first Acquire, re-Acquiring
// with an unchanged chain count performs no allocation.
type Lease struct {
	store   ParamStore
	vecs    []*Vector
	segs    [][]float64
	offs    []int
	seqs    []int64
	adv     []int // chains whose head advanced during the last released lease
	held    bool
	retired bool // the last released lease outlived its store's retirement
}

// Acquire leases every chain's latest vector from st and returns the
// zero-copy View over the published segments. st must not be retired:
// acquiring from a retired store would spin forever in the latest-pointer
// loop (every head is stale, and nothing will ever replace it) or worse,
// surface a reclaimed buffer — so it panics instead. Callers that race with
// retirement (the serving tier vs. the end-of-run teardown) must pin the
// store before acquiring, e.g. under sgd.Running's read lock.
func (l *Lease) Acquire(st ParamStore) View {
	if l.held {
		panic("paramvec: Lease.Acquire while held")
	}
	if st.Retired() {
		panic("paramvec: Lease.Acquire on retired store")
	}
	c := st.Chains()
	if cap(l.vecs) < c {
		l.vecs = make([]*Vector, c)
		l.segs = make([][]float64, c)
		l.seqs = make([]int64, c)
		l.offs = make([]int, c+1)
		l.adv = make([]int, 0, c)
	}
	l.vecs, l.segs, l.seqs, l.offs = l.vecs[:c], l.segs[:c], l.seqs[:c], l.offs[:c+1]
	if l.store != st {
		// A different store: refresh the segment offsets.
		l.store = st
		l.offs[0] = 0
		for i := 0; i < c; i++ {
			l.offs[i+1] = st.ChainRange(i).Hi
		}
	}
	for i := 0; i < c; i++ {
		v := st.ChainLatest(i)
		l.vecs[i] = v
		l.segs[i] = v.Theta
		l.seqs[i] = v.T
	}
	l.held = true
	if c == 1 {
		return View{flat: l.segs[0]}
	}
	return View{segs: l.segs, offs: l.offs}
}

// Release validates and drops the lease, reporting whether the leased view
// was provably a consistent global state: true when no chain published
// between Acquire and Release (single-chain leases are always consistent —
// one immutable vector) AND the store is still live. A lease that outlived
// its store's retirement (the end-of-run teardown retired the store
// mid-read) is never classified consistent — the buffers were valid for
// the whole window, but they no longer describe the live state; RetiredStore
// reports this case distinctly. The validation walk records every chain
// whose head advanced — the per-chain staleness accounting AdvancedChains
// exposes. The recorded sequence numbers (Seq) stay valid after Release; the
// View does not. Release performs no allocation once the advanced-chain
// slice has grown to the store's chain count, and dropping the last lease on
// a retired store frees its buffers instead of recycling them into the dead
// pools.
func (l *Lease) Release() bool {
	if !l.held {
		panic("paramvec: Lease.Release without Acquire")
	}
	l.held = false
	l.adv = l.adv[:0]
	l.retired = l.store.Retired()
	if len(l.vecs) > 1 {
		for c, v := range l.vecs {
			if l.store.ChainPeek(c) != v {
				l.adv = append(l.adv, c)
			}
		}
	}
	for i, v := range l.vecs {
		v.StopReading()
		l.vecs[i] = nil
	}
	return len(l.adv) == 0 && !l.retired
}

// RetiredStore reports whether the last released lease outlived its store's
// retirement. Valid until the next Release.
func (l *Lease) RetiredStore() bool { return l.retired }

// AdvancedChains returns the chains whose published head advanced during the
// window of the last released lease — empty exactly when that read was
// consistent. The slice is valid until the next Release and must not be
// retained.
func (l *Lease) AdvancedChains() []int { return l.adv }

// Seq returns chain c's sequence number as read at Acquire time — the
// staleness baseline the publish protocol measures against. Valid until the
// next Acquire.
func (l *Lease) Seq(c int) int64 { return l.seqs[c] }

// Chains returns the chain count of the last Acquire.
func (l *Lease) Chains() int { return len(l.seqs) }
