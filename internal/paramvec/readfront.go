// ReadFront: an RCU-style double-buffered snapshot layer over any ParamStore,
// built for read-mostly traffic (the serving tier). The paper's persistence
// bound Tp trades staleness for throughput on the write side; ReadFront is the
// exact dual on the read side — a ReadLeash bounds how far a served snapshot
// may lag the live store, and within that leash every concurrent reader shares
// ONE amortized snapshot: acquire is a single atomic pointer load plus a
// reader-count increment, with no per-chain seqlock validation, no
// mixed-version reads and no retired-lease edge cases. A background refresher
// folds published updates into the back buffer (a sparse fold copies only the
// chains whose sequence numbers advanced since that buffer's own last fold;
// cold buffers take a dense SnapshotConsistent-style full copy), then flips
// the front pointer. A flipped-out buffer is reclaimed only after its reader
// count drains — the RCU grace period.
package paramvec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ReadMeta labels one parameter read served by a leased or snapshot read path
// (Running.ReadParams, ReadFront.ReadParams) — the consistency metadata a
// served prediction carries.
type ReadMeta struct {
	// Consistent reports that the view was provably one global state: no
	// chain published during the read window and the store stayed live.
	// Snapshot reads are always consistent — the fold never flips a
	// mixed-version buffer.
	Consistent bool
	// Retired reports that the lease outlived its store: the store was
	// retired (the run ended) while the read was in flight. The buffers
	// were valid for the whole window but describe a dead store.
	Retired bool
	// Final reports that the run had already ended and the read was served
	// from the immutable final parameters.
	Final bool
	// Copied reports that the parameters were copied rather than leased
	// zero-copy from the live store.
	Copied bool
	// Snapshot reports that the read was served from a ReadFront snapshot:
	// one immutable amortized copy shared by all concurrent readers, at most
	// a ReadLeash behind the live store.
	Snapshot bool
	// Chains is the number of chains the view spanned (1 for flat reads).
	Chains int
	// StalenessUpdates is the read's measured lag behind the live store in
	// published updates (summed over chains); snapshot reads only. Exact
	// when the leash has a MaxUpdates bound, a refresher-estimated lower
	// bound otherwise.
	StalenessUpdates int64
	// StalenessAge is the wall time since the served snapshot was last
	// known current; snapshot reads only.
	StalenessAge time.Duration
}

// ReadLeash bounds how far a served ReadFront snapshot may lag the live store
// — the read-path mirror of the paper's persistence bound Tp. Zero values
// take defaults; a leash with neither bound set defaults to MaxAge = 2ms.
type ReadLeash struct {
	// MaxUpdates is the maximum number of published updates (summed over
	// chains) a served snapshot may lag the store. When set, every read
	// measures its lag exactly against the live chain heads; <= 0 disables
	// the bound (staleness in updates is then a refresher estimate).
	MaxUpdates int64
	// MaxAge is the maximum wall time a served snapshot may lag. <= 0
	// disables the bound unless MaxUpdates is also unset.
	MaxAge time.Duration
	// Poll is the refresher's check cadence; defaults to MaxAge/4 (clamped
	// to [100µs, 100ms]), so the background fold runs at a half-leash
	// safety margin and readers almost never hit the synchronous slow path.
	Poll time.Duration
}

func (l ReadLeash) withDefaults() ReadLeash {
	if l.MaxUpdates <= 0 && l.MaxAge <= 0 {
		l.MaxAge = 2 * time.Millisecond
	}
	if l.Poll <= 0 {
		switch {
		case l.MaxAge > 0:
			l.Poll = l.MaxAge / 4
		default:
			l.Poll = 250 * time.Microsecond
		}
	}
	if l.Poll < 100*time.Microsecond {
		l.Poll = 100 * time.Microsecond
	}
	if l.Poll > 100*time.Millisecond {
		l.Poll = 100 * time.Millisecond
	}
	return l
}

// over reports whether a measured (lag, age) staleness exceeds the leash.
func (l ReadLeash) over(lag int64, age time.Duration) bool {
	return (l.MaxUpdates > 0 && lag > l.MaxUpdates) ||
		(l.MaxAge > 0 && age > l.MaxAge)
}

// snap is one immutable published snapshot buffer. The reader protocol is the
// Vector latest-pointer protocol transplanted to whole-vector granularity:
// acquire loads the front pointer, increments readers, and re-checks stale —
// a reader that raced a flip backs off and reloads. The refresher only reuses
// a buffer it has observed stale with zero readers, and it re-arms stale=false
// strictly after the buffer's contents are fully written, so a late
// incrementing reader can never observe a buffer mid-rewrite.
type snap struct {
	theta []float64
	// seqs holds, per chain of the source store, the sequence number of the
	// segment this buffer holds — the buffer's own fold baseline. A reused
	// back buffer diffs the live heads against ITS OWN seqs, so a
	// low-occupancy interval copies only the chains that advanced.
	seqs   []int64
	store  ParamStore // source the seqs are valid against; nil once frozen
	seqSum int64
	final  bool

	// validNanos is the last instant (nanos on the owning ReadFront's
	// monotonic base) the snapshot was known current: fold time, advanced by
	// refresher ticks that observe zero lag.
	validNanos atomic.Int64
	// lag is the refresher's last observed update lag — a lower-bound
	// estimate used when the leash has no exact MaxUpdates bound.
	lag atomic.Int64

	readers atomic.Int64
	stale   atomic.Bool
}

// FoldStats is a ReadFront's refresher instrumentation counter snapshot.
type FoldStats struct {
	// Flips counts installed snapshots (front-pointer swaps).
	Flips int64
	// DenseFolds counts folds that seeded the back buffer with a full-vector
	// copy (cold buffer, or the pin returned a different source store).
	DenseFolds int64
	// SparseFolds counts folds that reused the back buffer's own baseline
	// and copied only advanced chains.
	SparseFolds int64
	// ChainsCopied counts chain segments copied across all folds.
	ChainsCopied int64
	// Abandoned counts folds that hit the validation pass bound without
	// reaching a consistent state and were abandoned un-flipped (the front
	// keeps serving the previous consistent snapshot).
	Abandoned int64
	// SnapAllocs counts snapshot buffers allocated (the RCU ring size).
	SnapAllocs int64
	// SlowReads counts reads that measured staleness over the leash and took
	// the synchronous refresh slow path.
	SlowReads int64
}

// foldMaxPasses bounds the fold's validate/re-copy loop. A fold that cannot
// reach a clean pass under sustained publish pressure is abandoned un-flipped
// rather than flipping a mixed-version buffer or spinning while it holds the
// store pin: staleness grows (and is reported), consistency never degrades.
const foldMaxPasses = 64

// ReadFront serves consistent point-in-time snapshots of a ParamStore to
// read-mostly traffic. It is a read layer, not a store: writers publish into
// the source store directly, and readers call ReadParams, which satisfies the
// serving tier's Source contract. Construct with NewReadFront (over a fixed
// store) or NewReadFrontPinned (over a pin function, for sources that
// guard their store's retirement, e.g. a live training run).
type ReadFront struct {
	dim   int
	leash ReadLeash
	// pin returns the current source store pinned against retirement for
	// the duration of the returned release func, or (nil, nil) when no live
	// store is available (run ended, source retired).
	pin func() (ParamStore, func())

	front atomic.Pointer[snap]
	base  time.Time

	// foldMu serializes the refresher, synchronous refreshes and Freeze; it
	// also guards ring.
	foldMu sync.Mutex
	ring   []*snap

	quit      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	flips, denseFolds, sparseFolds atomic.Int64
	chainsCopied, abandoned        atomic.Int64
	snapAllocs, slowReads          atomic.Int64
}

// NewReadFront builds a ReadFront over a fixed store; the store stays the
// caller's to retire, after which the front keeps serving its last snapshot.
// Close stops the refresher. The store need not be initialized yet — the
// first successful fold happens once PublishInit has run.
func NewReadFront(st ParamStore, leash ReadLeash) *ReadFront {
	return NewReadFrontPinned(st.Dim(), func() (ParamStore, func()) {
		if st.Retired() {
			return nil, nil
		}
		return st, func() {}
	}, leash)
}

// NewReadFrontPinned builds a ReadFront over a pin function: pin must return
// the current source store protected against retirement until the release
// func is called, or (nil, nil) when no live store exists. Should the source
// store change between pins, the fold detects the identity change and
// re-seeds densely; no caller swaps stores mid-run today.
func NewReadFrontPinned(dim int, pin func() (ParamStore, func()), leash ReadLeash) *ReadFront {
	rf := &ReadFront{
		dim:   dim,
		leash: leash.withDefaults(),
		pin:   pin,
		base:  time.Now(),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	rf.refreshNow()
	go rf.refresher()
	return rf
}

func (rf *ReadFront) nanos() int64 { return int64(time.Since(rf.base)) }

// Dim is the full flat-vector dimension d.
func (rf *ReadFront) Dim() int { return rf.dim }

// Leash returns the effective (defaulted) leash.
func (rf *ReadFront) Leash() ReadLeash { return rf.leash }

// Stats returns the refresher instrumentation counters.
func (rf *ReadFront) Stats() FoldStats {
	return FoldStats{
		Flips:        rf.flips.Load(),
		DenseFolds:   rf.denseFolds.Load(),
		SparseFolds:  rf.sparseFolds.Load(),
		ChainsCopied: rf.chainsCopied.Load(),
		Abandoned:    rf.abandoned.Load(),
		SnapAllocs:   rf.snapAllocs.Load(),
		SlowReads:    rf.slowReads.Load(),
	}
}

// --- reader protocol --------------------------------------------------------

// acquire pins the front snapshot: one atomic pointer load plus a reader
// registration, re-checked against a racing flip exactly like Vector's
// latest-pointer loop. Returns nil when no snapshot has been installed yet.
func (rf *ReadFront) acquire() *snap {
	for {
		s := rf.front.Load()
		if s == nil {
			return nil
		}
		s.readers.Add(1)
		if !s.stale.Load() {
			return s
		}
		s.readers.Add(-1)
	}
}

func (s *snap) release() { s.readers.Add(-1) }

// staleness measures how far s lags the live store. With a MaxUpdates leash
// the lag is exact — the live chain heads are peeked under a store pin; the
// age estimate comes from the refresher's last zero-lag observation either
// way. A source identity change not yet folded reports the lag as
// leash-exceeding so the caller refreshes.
func (rf *ReadFront) staleness(s *snap) (lag int64, age time.Duration) {
	if s.final {
		return 0, 0
	}
	// Load before reading the clock: the refresher may store a newer
	// instant at any moment, and the age must never come out negative.
	valid := s.validNanos.Load()
	age = time.Duration(rf.nanos() - valid)
	if rf.leash.MaxUpdates <= 0 {
		return s.lag.Load(), age
	}
	st, unpin := rf.pin()
	if st == nil {
		// Source gone (teardown in progress): the frozen final snapshot is
		// about to be installed; serve the estimate meanwhile.
		return s.lag.Load(), age
	}
	defer unpin()
	if st != s.store {
		return rf.leash.MaxUpdates + 1, age
	}
	live := int64(0)
	for c := 0; c < st.Chains(); c++ {
		if v := st.ChainPeek(c); v != nil {
			live += v.T
		}
	}
	if lag = live - s.seqSum; lag < 0 {
		lag = 0
	}
	return lag, age
}

// ReadParams runs fn against the front snapshot and labels the read — the
// serving tier's Source contract. The lease argument is unused (snapshot
// reads hold no lease) and scratch is never written: the snapshot itself is
// the amortized copy. A read that measures its staleness over the leash takes
// a one-shot synchronous refresh first, so every served read is at most one
// fold behind its leash even if the background refresher is starved.
//
// fn must not retain the view past its return: the buffer is reused once the
// snapshot is flipped out and its readers drain.
func (rf *ReadFront) ReadParams(_ *Lease, _ []float64, fn func(View)) ReadMeta {
	s := rf.acquire()
	if s == nil {
		// Nothing published yet: fold synchronously (initialization race).
		rf.refreshNow()
		if s = rf.acquire(); s == nil {
			panic("paramvec: ReadFront.ReadParams before the source store published")
		}
	}
	lag, age := rf.staleness(s)
	if rf.leash.over(lag, age) {
		s.release()
		rf.slowReads.Add(1)
		rf.refreshNow()
		s = rf.acquire()
		lag, age = rf.staleness(s)
	}
	fn(FlatView(s.theta))
	final := s.final
	s.release()
	return ReadMeta{
		Consistent:       true,
		Final:            final,
		Copied:           true,
		Snapshot:         true,
		Chains:           1,
		StalenessUpdates: lag,
		StalenessAge:     age,
	}
}

// --- refresher --------------------------------------------------------------

func (rf *ReadFront) refresher() {
	defer close(rf.done)
	t := time.NewTicker(rf.leash.Poll)
	defer t.Stop()
	for {
		select {
		case <-rf.quit:
			return
		case <-t.C:
			rf.tick()
		}
	}
}

// tick measures the front's lag against the live store and folds when it
// crosses the half-leash margin — readers then (almost) never find the front
// over the leash, and a quiet store costs a few atomic loads per poll.
func (rf *ReadFront) tick() {
	rf.foldMu.Lock()
	defer rf.foldMu.Unlock()
	st, unpin := rf.pin()
	if st == nil {
		return
	}
	defer unpin()
	s := rf.front.Load()
	if s == nil || s.store != st {
		rf.foldLocked(st)
		return
	}
	if s.final {
		return
	}
	live := int64(0)
	for c := 0; c < st.Chains(); c++ {
		if v := st.ChainPeek(c); v != nil {
			live += v.T
		}
	}
	now := rf.nanos()
	lag := live - s.seqSum
	if lag <= 0 {
		s.lag.Store(0)
		s.validNanos.Store(now)
		return
	}
	s.lag.Store(lag)
	age := time.Duration(now - s.validNanos.Load())
	if rf.leash.over(2*lag, 2*age) {
		rf.foldLocked(st)
	}
}

// refreshNow pins the source and folds synchronously. Reports whether a
// fresh snapshot was installed.
func (rf *ReadFront) refreshNow() bool {
	rf.foldMu.Lock()
	defer rf.foldMu.Unlock()
	st, unpin := rf.pin()
	if st == nil {
		return false
	}
	defer unpin()
	return rf.foldLocked(st)
}

// claimBack returns a reusable back buffer: a ring member that is flipped
// out (stale) with a drained reader count — the RCU grace condition — or a
// freshly allocated one. foldMu held.
func (rf *ReadFront) claimBack() *snap {
	front := rf.front.Load()
	for _, s := range rf.ring {
		if s != front && s.stale.Load() && s.readers.Load() == 0 {
			return s
		}
	}
	s := &snap{theta: make([]float64, rf.dim)}
	s.stale.Store(true)
	rf.ring = append(rf.ring, s)
	rf.snapAllocs.Add(1)
	return s
}

// foldLocked folds the live store into a back buffer and flips it in as the
// new front. The buffer is seeded densely (full Snapshot) when it is cold or
// its baseline belongs to a different store generation; otherwise only the
// chains whose heads advanced past the buffer's own baseline are copied — the
// sparse fold. Either way the buffer is then validated chain-by-chain and
// re-copied until one full pass observes no advancement: the flipped snapshot
// is always ONE consistent global state. If the pass bound is exhausted the
// fold is abandoned un-flipped (the per-chain baselines stay coherent, so the
// next fold resumes incrementally). foldMu held; st pinned by the caller.
func (rf *ReadFront) foldLocked(st ParamStore) bool {
	if st.Retired() || st.ChainPeek(0) == nil {
		return false
	}
	C := st.Chains()
	back := rf.claimBack()
	if back.store != st || len(back.seqs) != C {
		back.store = st
		if cap(back.seqs) < C {
			back.seqs = make([]int64, C)
		}
		back.seqs = st.Snapshot(back.theta, back.seqs)
		rf.denseFolds.Add(1)
		rf.chainsCopied.Add(int64(C))
	} else {
		rf.sparseFolds.Add(1)
	}
	consistent := false
	for pass := 0; pass < foldMaxPasses; pass++ {
		dirty := 0
		for c := 0; c < C; c++ {
			if p := st.ChainPeek(c); p != nil && p.T == back.seqs[c] {
				continue
			}
			v := st.ChainLatest(c)
			r := st.ChainRange(c)
			copy(back.theta[r.Lo:r.Hi], v.Theta)
			back.seqs[c] = v.T
			v.StopReading()
			dirty++
		}
		if dirty == 0 {
			consistent = true
			break
		}
		rf.chainsCopied.Add(int64(dirty))
	}
	if !consistent {
		rf.abandoned.Add(1)
		return false
	}
	sum := int64(0)
	for _, t := range back.seqs {
		sum += t
	}
	back.seqSum = sum
	back.final = false
	back.lag.Store(0)
	back.validNanos.Store(rf.nanos())
	rf.flip(back)
	return true
}

// flip installs back as the front. Ordering: contents and metadata are fully
// written first, then stale clears (release), then the pointer swaps — a
// reader that acquires the new front sees complete data; a reader that raced
// onto the old front sees its stale flag and backs off.
func (rf *ReadFront) flip(back *snap) {
	back.stale.Store(false)
	old := rf.front.Swap(back)
	if old != nil && old != back {
		old.stale.Store(true)
	}
	rf.flips.Add(1)
}

// Freeze installs final as an immutable terminal snapshot (staleness
// permanently zero, reads labeled Final) and stops the refresher. The source
// pin is never consulted again. Used when the wrapped run ends.
func (rf *ReadFront) Freeze(final []float64) {
	if len(final) != rf.dim {
		panic(fmt.Sprintf("paramvec: ReadFront.Freeze got %d values, want %d", len(final), rf.dim))
	}
	rf.foldMu.Lock()
	if cur := rf.front.Load(); cur == nil || !cur.final {
		back := rf.claimBack()
		copy(back.theta, final)
		back.store = nil
		back.seqs = back.seqs[:0]
		back.seqSum = 0
		back.final = true
		back.lag.Store(0)
		back.validNanos.Store(rf.nanos())
		rf.flip(back)
	}
	rf.foldMu.Unlock()
	rf.Close()
}

// Close stops the refresher goroutine. Idempotent; held snapshots stay valid
// and reads keep serving the last front.
func (rf *ReadFront) Close() {
	rf.closeOnce.Do(func() {
		close(rf.quit)
		<-rf.done
	})
}
