// ReadFront: an RCU-style double-buffered snapshot layer over the chain store,
// built for read-mostly traffic (the serving tier). The paper's persistence
// bound Tp trades staleness for throughput on the write side; ReadFront is the
// exact dual on the read side — a ReadLeash bounds how far a served snapshot
// may lag the live store, and within that leash every concurrent reader shares
// ONE amortized snapshot: acquire is a single atomic pointer load plus a
// reader-count increment, with no per-chain seqlock validation, no
// mixed-version reads and no retired-lease edge cases. A background refresher
// folds the store into the back buffer with Store.SnapshotConsistent from that
// buffer's own baseline — only the chains that advanced since the buffer's last
// fold are copied — then flips the front pointer. A flipped-out buffer is
// reclaimed only after its reader count drains — the RCU grace period.
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
	// StalenessUpdates is the read's lag behind the live store in published
	// updates (summed over chains) as the refresher last measured it: a
	// lower bound, since updates may have landed after that tick; snapshot
	// reads only.
	StalenessUpdates int64
	// StalenessAge is the wall time since the served snapshot was last
	// known current; snapshot reads only.
	StalenessAge time.Duration
}

// ReadLeash bounds how far a served ReadFront snapshot may lag the live store
// in wall time — the read-path mirror of the paper's persistence bound Tp.
type ReadLeash struct {
	// MaxAge is the maximum wall time a served snapshot may lag; <= 0 takes
	// the default 2ms. The refresher checks the store every MaxAge/4
	// (clamped to [100µs, 100ms]) and folds once the front is half a leash
	// old, so readers almost never hit the synchronous slow path.
	MaxAge time.Duration
	// poll, when set (package tests only), replaces the check cadence
	// derived from MaxAge.
	poll time.Duration
}

func (l ReadLeash) withDefaults() ReadLeash {
	if l.MaxAge <= 0 {
		l.MaxAge = 2 * time.Millisecond
	}
	if l.poll <= 0 {
		l.poll = min(max(l.MaxAge/4, 100*time.Microsecond), 100*time.Millisecond)
	}
	return l
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
	// seqs holds, per chain, the sequence number of the segment this buffer
	// holds — the buffer's own SnapshotConsistent baseline, so a reused back
	// buffer copies only the chains that advanced since it was last folded.
	// Nil while the buffer is cold.
	seqs   []int64
	seqSum int64
	final  bool

	// validNanos is the last instant (nanos on the owning ReadFront's
	// monotonic base) the snapshot was known current: fold time, advanced by
	// refresher ticks that observe zero lag.
	validNanos atomic.Int64
	// lag is the refresher's last observed update lag.
	lag atomic.Int64

	readers atomic.Int64
	stale   atomic.Bool
}

// FoldStats is a ReadFront's refresher instrumentation counter snapshot.
type FoldStats struct {
	// Flips counts installed snapshots (front-pointer swaps).
	Flips int64
	// SnapAllocs counts snapshot buffers allocated (the RCU ring size).
	SnapAllocs int64
	// SlowReads counts reads that found the front over the leash and took
	// the synchronous refresh slow path.
	SlowReads int64
}

// ReadFront serves consistent point-in-time snapshots of a Store to
// read-mostly traffic. It is a read layer, not a store: writers publish into
// the source store directly, and readers call ReadParams, which satisfies the
// serving tier's Source contract.
type ReadFront struct {
	dim   int
	leash ReadLeash

	front atomic.Pointer[snap]
	base  time.Time

	// foldMu serializes every access to the source store (refresher ticks,
	// synchronous refreshes) with Freeze and Close; it guards st and ring.
	foldMu sync.Mutex
	// st is the source store; nil once Close or Freeze has detached the
	// front from it.
	st   *Store
	ring []*snap

	quit      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	flips, snapAllocs, slowReads atomic.Int64
}

// NewReadFront builds a ReadFront over st, which must already be published
// (PublishInit has run), folds its first snapshot and starts the refresher.
// The front reads st only under foldMu, and Close or Freeze detaches it for
// good: the owner of st must call one of them before it retires st, since a
// fold would wait forever for a retired chain head.
func NewReadFront(st *Store, leash ReadLeash) *ReadFront {
	if st.ChainPeek(0) == nil {
		panic("paramvec: NewReadFront before the store published")
	}
	rf := &ReadFront{
		dim:   st.Dim(),
		leash: leash.withDefaults(),
		st:    st,
		base:  time.Now(),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	// A fold abandoned at the pass bound keeps its baseline, so each retry
	// copies only the chains that advanced meanwhile.
	for !rf.refreshNow() {
	}
	go rf.refresher()
	return rf
}

func (rf *ReadFront) nanos() int64 { return int64(time.Since(rf.base)) }

// Dim is the full flat-vector dimension d.
func (rf *ReadFront) Dim() int { return rf.dim }

// Stats returns the refresher instrumentation counters.
func (rf *ReadFront) Stats() FoldStats {
	return FoldStats{
		Flips:      rf.flips.Load(),
		SnapAllocs: rf.snapAllocs.Load(),
		SlowReads:  rf.slowReads.Load(),
	}
}

// --- reader protocol --------------------------------------------------------

// acquire pins the front snapshot: one atomic pointer load plus a reader
// registration, re-checked against a racing flip exactly like Vector's
// latest-pointer loop.
func (rf *ReadFront) acquire() *snap {
	for {
		s := rf.front.Load()
		s.readers.Add(1)
		if !s.stale.Load() {
			return s
		}
		s.readers.Add(-1)
	}
}

func (s *snap) release() { s.readers.Add(-1) }

// staleness reports how far s lags the live store: the refresher's last
// measured update lag, and the wall time since s was last known current.
func (rf *ReadFront) staleness(s *snap) (lag int64, age time.Duration) {
	if s.final {
		return 0, 0
	}
	// Load before reading the clock: the refresher may store a newer
	// instant at any moment, and the age must never come out negative.
	valid := s.validNanos.Load()
	return s.lag.Load(), time.Duration(rf.nanos() - valid)
}

// ReadParams runs fn against the front snapshot and labels the read — the
// serving tier's Source contract. The lease argument is unused (snapshot
// reads hold no lease) and scratch is never written: the snapshot itself is
// the amortized copy. A read that finds the front older than the leash takes
// a one-shot synchronous refresh first, so every served read is at most one
// fold behind its leash even if the background refresher is starved.
//
// fn must not retain the view past its return: the buffer is reused once the
// snapshot is flipped out and its readers drain.
func (rf *ReadFront) ReadParams(_ *Lease, _ []float64, fn func(View)) ReadMeta {
	s := rf.acquire()
	lag, age := rf.staleness(s)
	if age > rf.leash.MaxAge {
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
	t := time.NewTicker(rf.leash.poll)
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

// tick measures the front's lag against the live store and folds once the
// front is half a leash old — readers then (almost) never find it over the
// leash, and a quiet store costs one registration per chain per poll. Each
// head's T is read under a read registration: a reclaimed header is reused
// and rewritten.
func (rf *ReadFront) tick() {
	rf.foldMu.Lock()
	defer rf.foldMu.Unlock()
	if rf.st == nil {
		return
	}
	s := rf.front.Load()
	lag := -s.seqSum
	for c := 0; c < rf.st.Chains(); c++ {
		v := rf.st.ChainLatest(c)
		lag += v.T
		v.StopReading()
	}
	now := rf.nanos()
	if lag == 0 {
		s.lag.Store(0)
		s.validNanos.Store(now)
		return
	}
	s.lag.Store(lag)
	if 2*time.Duration(now-s.validNanos.Load()) > rf.leash.MaxAge {
		rf.foldLocked()
	}
}

// refreshNow folds synchronously and reports whether a fresh snapshot was
// installed; a detached front installs nothing.
func (rf *ReadFront) refreshNow() bool {
	rf.foldMu.Lock()
	defer rf.foldMu.Unlock()
	return rf.st != nil && rf.foldLocked()
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

// foldLocked folds the live store into a back buffer with
// Store.SnapshotConsistent from the buffer's own baseline and flips it in as
// the new front, so the flipped snapshot is always ONE consistent global
// state. A fold that hits the pass bound is abandoned un-flipped; the
// buffer's baseline still describes its contents, so its next fold resumes
// incrementally. foldMu held, st attached.
func (rf *ReadFront) foldLocked() bool {
	back := rf.claimBack()
	seqs, ok := rf.st.SnapshotConsistent(back.theta, back.seqs)
	back.seqs = seqs
	if !ok {
		return false
	}
	back.seqSum = 0
	for _, t := range seqs {
		back.seqSum += t
	}
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
	if old := rf.front.Swap(back); old != nil {
		old.stale.Store(true)
	}
	rf.flips.Add(1)
}

// Freeze installs final as an immutable terminal snapshot (staleness
// permanently zero, reads labeled Final), detaches the front from its store
// and stops the refresher. Used when the wrapped run ends.
func (rf *ReadFront) Freeze(final []float64) {
	if len(final) != rf.dim {
		panic(fmt.Sprintf("paramvec: ReadFront.Freeze got %d values, want %d", len(final), rf.dim))
	}
	rf.foldMu.Lock()
	if !rf.front.Load().final {
		back := rf.claimBack()
		copy(back.theta, final)
		back.final = true
		rf.flip(back)
	}
	rf.st = nil
	rf.foldMu.Unlock()
	rf.Close()
}

// Close stops the refresher and detaches the front from its store: no fold
// reaches the store again. Idempotent; held snapshots stay valid and reads
// keep serving the last front.
func (rf *ReadFront) Close() {
	rf.closeOnce.Do(func() {
		close(rf.quit)
		<-rf.done
	})
	rf.foldMu.Lock()
	rf.st = nil
	rf.foldMu.Unlock()
}
