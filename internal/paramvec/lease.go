package paramvec

// Lease is a reusable, allocation-free handle on one leased read of the
// chains' latest published vectors. Acquire registers the caller as a reader
// of each chain (Algorithm 3's latest_pointer per chain), so none of the
// leased vectors can be recycled until Release — the caller computes its
// gradient DIRECTLY against the published segments through the returned
// View, with no private copy of θ. This restores the paper's zero-copy read
// (P3) on the sharded store, where an earlier design copied θ per read.
// AcquireChains leases only the chains a step will read — a sparse step's
// support — and its View holds no segment for the others.
//
// Release re-checks every leased chain's published head against the leased
// one (a seqlock over the chains): if no leased chain published during the
// window the read was provably one global state of the chains it read
// (consistent); otherwise different chains may mix versions (cross-chain
// skew). The classification feeds
// Result.ConsistentReads/MixedReads in internal/sgd.
//
// A writer that publishes on the chains it read splits Release in two: Check
// classifies the read and keeps every registration, Take hands one chain's
// registration over — the leased vector becomes the first publish attempt's
// expected head — and Drop ends whatever is left.
//
// A Lease is owned by one goroutine; after the first Acquire, re-Acquiring
// with an unchanged chain count performs no allocation.
type Lease struct {
	store   *Store
	vecs    []*Vector // per chain; nil where nothing is held
	segs    [][]float64
	seqs    []int64
	chains  []int // the chains the last Acquire leased, ascending
	sel     []int // AcquireChains' copy of its chain list
	adv     []int // chains whose head advanced during the last checked lease
	held    bool
	retired bool // the last checked lease outlived its store's retirement
}

// Acquire leases every chain's latest vector from st and returns the
// zero-copy View over the published segments. st must not be retired:
// acquiring from a retired store would spin forever in the latest-pointer
// loop (every head is stale, and nothing will ever replace it) or worse,
// surface a reclaimed buffer — so it panics instead. Callers that race with
// retirement (the serving tier vs. the end-of-run teardown) must pin the
// store before acquiring, e.g. under sgd.Running's read lock.
func (l *Lease) Acquire(st *Store) View {
	l.prepare(st)
	return l.acquire(st, st.all)
}

// AcquireChains is Acquire restricted to chains (ascending, no repeats): it
// registers on those chains only, and the returned View has an empty
// segment for every other chain — reading there is an index error, not a
// stale value. Seq, Take and the validation cover the leased chains only.
func (l *Lease) AcquireChains(st *Store, chains []int) View {
	l.prepare(st)
	l.sel = append(l.sel[:0], chains...)
	return l.acquire(st, l.sel)
}

// prepare checks the lease can be taken on st and sizes it to st's chains.
func (l *Lease) prepare(st *Store) {
	if l.held {
		panic("paramvec: Lease.Acquire while held")
	}
	if st.Retired() {
		panic("paramvec: Lease.Acquire on retired store")
	}
	if l.store != st {
		c := st.Chains()
		if cap(l.vecs) < c {
			l.vecs = make([]*Vector, c)
			l.segs = make([][]float64, c)
			l.seqs = make([]int64, c)
			l.sel = make([]int, 0, c)
			l.adv = make([]int, 0, c)
		}
		l.store = st
		l.vecs, l.segs, l.seqs = l.vecs[:c], l.segs[:c], l.seqs[:c]
	}
}

func (l *Lease) acquire(st *Store, chains []int) View {
	for _, c := range chains {
		v := st.ChainLatest(c)
		l.vecs[c] = v
		l.segs[c] = v.Theta
		l.seqs[c] = v.T
	}
	l.chains = chains
	l.held = true
	if len(l.vecs) == 1 {
		return View{flat: l.segs[0]}
	}
	return View{segs: l.segs, offs: st.offs}
}

// Release validates and drops the lease, reporting whether the leased view
// was provably a consistent global state of the chains it read: true when no
// leased chain published between Acquire and Release (a lease of one chain
// is always consistent — one immutable vector) AND the store is still live.
// A lease that outlived its store's retirement (the end-of-run teardown
// retired the store mid-read) is never classified consistent — the buffers
// were valid for the whole window, but they no longer describe the live
// state; RetiredStore reports this case distinctly. The validation walk
// records every chain whose head advanced — the per-chain staleness
// accounting AdvancedChains exposes. The recorded sequence numbers (Seq)
// stay valid after Release; the View does not. Release performs no
// allocation once the advanced-chain slice has grown to the store's chain
// count, and dropping the last lease on a retired store frees its buffers
// instead of recycling them into the dead pools.
func (l *Lease) Release() bool {
	ok := l.Check()
	l.Drop()
	return ok
}

// Check is Release's validation without the release: it classifies the
// read as Release would and keeps every registration, so the View stays
// valid and the leased vectors can still be taken. It compares each leased
// head with its chain's published pointer while still registered on it, so
// a recycled header can never pass for an unchanged head.
func (l *Lease) Check() bool {
	if !l.held {
		panic("paramvec: Lease.Release without Acquire")
	}
	l.adv = l.adv[:0]
	l.retired = l.store.Retired()
	if len(l.chains) > 1 {
		for _, c := range l.chains {
			if v := l.vecs[c]; v != nil && l.store.ChainPeek(c) != v {
				l.adv = append(l.adv, c)
			}
		}
	}
	return len(l.adv) == 0 && !l.retired
}

// Take hands chain c's registration to the caller and returns the leased
// vector, or nil when the lease holds none there. The caller must
// StopReading it; the View's segment c is no longer the lease's to keep.
func (l *Lease) Take(c int) *Vector {
	v := l.vecs[c]
	l.vecs[c], l.segs[c] = nil, nil
	return v
}

// Drop ends every registration the lease still holds, without validation.
func (l *Lease) Drop() {
	if !l.held {
		panic("paramvec: Lease.Release without Acquire")
	}
	l.held = false
	for _, c := range l.chains {
		if v := l.vecs[c]; v != nil {
			v.StopReading()
			l.vecs[c], l.segs[c] = nil, nil
		}
	}
}

// RetiredStore reports whether the last checked lease outlived its store's
// retirement. Valid until the next Check or Release.
func (l *Lease) RetiredStore() bool { return l.retired }

// AdvancedChains returns the chains whose published head advanced during the
// window of the last checked lease — empty exactly when that read was
// consistent. The slice is valid until the next Check or Release and must
// not be retained.
func (l *Lease) AdvancedChains() []int { return l.adv }

// Seq returns chain c's sequence number as read at Acquire time — the
// staleness baseline the publish protocol measures against. Valid for the
// leased chains until the next Acquire.
func (l *Lease) Seq(c int) int64 { return l.seqs[c] }

// Chains returns the chain count of the last Acquire's store.
func (l *Lease) Chains() int { return len(l.seqs) }
