// Package paramvec implements the paper's ParameterVector data structure
// (Algorithm 1): the shared object holding the flattened model parameters
// theta together with the metadata — sequence number t, readers count
// n_rdrs, stale and deleted flags — that the Leashed-SGD algorithm uses for
// lock-free consistent reads and safe memory recycling.
//
// Memory recycling under a garbage collector: the paper's `delete theta`
// becomes "park the whole ParameterVector in its chain's free set", guarded
// by the exact safe_delete condition of Algorithm 1 line 8 (stale ∧ n_rdrs =
// 0 ∧ CAS(deleted, false, true)). A parked vector — header, theta buffer,
// change log and version as one object — is checked out again by the next
// publish on its chain, so a steady-state publish allocates nothing and
// takes no lock. The Pool's accounting gauge measures live vectors, which is
// precisely the quantity Lemma 2 bounds by 3m.
//
// Reusing headers reopens ABA on the pointer CAS of the published cell P: a
// reader that loaded P before its head was reclaimed and reused could
// register on the reused header. Two rules close it (docs/architecture.md
// "Recycled headers and ABA"): latest_pointer re-checks P after it registers,
// and the reader count, the stale and deleted flags and a generation that
// every reuse advances share one atomic word, so a registration or a
// reclamation made against one life of a header never acts on the next.
//
// A recycled vector is an older version of its own chain, and remembers
// which one: SafeDelete parks a published vector with its T. The sparse
// publish (Shared.TryPublishSparse) uses that to refresh a checked-out
// vector from the head only at the components changed since, read off the
// head's change log, instead of copying the whole chain. This makes
// per-chain unique T load-bearing: a chain's T values must never repeat
// (each publish is its predecessor's T + 1 under the CAS, and PublishInit
// starts fresh pools at 0), or a version would name two different contents.
package paramvec

import (
	"math"
	"sync/atomic"

	"leashedsgd/internal/rng"
	"leashedsgd/internal/tensor"
)

// freeSlots is how many reclaimed vectors a pool keeps parked for reuse; a
// vector reclaimed into a full set is left to the garbage collector. A
// chain's live vectors are bounded by Lemma 2 (the head and at most two per
// worker), so at the m ≤ 4 of the benchmark workloads the set is rarely full;
// a constant, not a knob.
const freeSlots = 8

// Pool allocates and recycles the vectors of one fixed dimension and keeps
// the memory accounting for the Fig. 10 experiments: live vector count,
// peak, and total allocations (allocations ≫ live demonstrates recycling).
// Checkout and return are lock-free: the free set is a small array of
// atomic slots.
type Pool struct {
	dim    int
	free   [freeSlots]freeSlot
	live   atomic.Int64
	peak   atomic.Int64
	allocs atomic.Int64
	reuses atomic.Int64
	// dead marks a retired pool: vectors returned after retirement are
	// left to the garbage collector instead of parked in a set nothing
	// will ever check out of again.
	dead atomic.Bool
	// poison, when set (tests only), overwrites reclaimed buffers with NaN
	// so that any use-after-recycle read is detectable downstream.
	poison bool
}

// freeSlot is one parking place of a pool's free set: the parked vector and
// the chain version its content holds, kept beside the pointer so that
// choosing the newest parked version reads no vector header. The version is
// a hint for that choice only: the checked-out vector's own ver is what the
// sparse publish trusts.
type freeSlot struct {
	v   atomic.Pointer[Vector]
	ver atomic.Int64
}

// SetPoison enables test-mode poisoning of reclaimed buffers. Call before
// any concurrent use.
func (p *Pool) SetPoison(on bool) { p.poison = on }

// NewPool returns a pool of dimension-dim vectors.
func NewPool(dim int) *Pool {
	if dim <= 0 {
		panic("paramvec: pool dimension must be positive")
	}
	return &Pool{dim: dim}
}

// Dim returns the buffer dimension d.
func (p *Pool) Dim() int { return p.dim }

// unknownVer is the version of a buffer whose content no version vouches for
// (fresh, poisoned, or last written by anything but the sparse publish).
// Published T values start at 0, so it never equals one.
const unknownVer = -1

// get checks a vector out: the newest parked version when the free set has
// any, a fresh allocation (at unknownVer) otherwise. A reused vector starts
// a new generation with no reader, no flag and T = 0, and keeps its buffer,
// change log and version. Callers either overwrite every element (a fused
// update, a copy or rand_init), so clearing would be wasted work on the hot
// path, or — the sparse publish — rewrite only the components changed since
// the vector's version.
func (p *Pool) get() *Vector {
	v := p.take()
	if v == nil {
		v = &Vector{Theta: make([]float64, p.dim), ver: unknownVer, pool: p}
		p.allocs.Add(1)
	} else {
		v.renew()
		v.T = 0
		p.reuses.Add(1)
	}
	live := p.live.Add(1)
	for {
		peak := p.peak.Load()
		if live <= peak || p.peak.CompareAndSwap(peak, live) {
			break
		}
	}
	return v
}

// take claims the parked vector with the highest version, or returns nil
// when the set is empty. Lock-free: a claim lost to another taker means that
// taker succeeded.
func (p *Pool) take() *Vector {
	for {
		best, bestVer := -1, int64(0)
		for i := range p.free {
			if p.free[i].v.Load() != nil {
				if ver := p.free[i].ver.Load(); best < 0 || ver > bestVer {
					best, bestVer = i, ver
				}
			}
		}
		if best < 0 {
			return nil
		}
		if v := p.free[best].v.Swap(nil); v != nil {
			return v
		}
	}
}

// put returns a reclaimed vector: parked in the first empty slot, or left to
// the garbage collector when the set is full or the pool has been retired (a
// late lease release against a dead store must not park memory forever). A
// poisoned buffer holds no version.
func (p *Pool) put(v *Vector) {
	if p.poison {
		nan := math.NaN()
		for i := range v.Theta {
			v.Theta[i] = nan
		}
		v.ver = unknownVer
	}
	p.live.Add(-1)
	if p.dead.Load() {
		return
	}
	for i := range p.free {
		s := &p.free[i]
		if s.v.Load() != nil {
			continue
		}
		s.ver.Store(v.ver)
		if s.v.CompareAndSwap(nil, v) {
			// Retire sets dead before it drains: either its drain or this
			// re-check takes the vector back out.
			if p.dead.Load() {
				s.v.CompareAndSwap(v, nil)
			}
			return
		}
	}
}

// Retire marks the pool dead and drains its free set. Outstanding vectors
// (e.g. protected by a still-held lease) stay valid; once returned they are
// released to the garbage collector rather than recycled.
func (p *Pool) Retire() {
	p.dead.Store(true)
	for i := range p.free {
		p.free[i].v.Store(nil)
	}
}

// Live returns the number of vectors currently checked out — the "number of
// ParameterVector instances" gauge of the memory experiments.
func (p *Pool) Live() int64 { return p.live.Load() }

// Peak returns the high-water mark of Live.
func (p *Pool) Peak() int64 { return p.peak.Load() }

// Allocs returns how many vectors were ever heap-allocated.
func (p *Pool) Allocs() int64 { return p.allocs.Load() }

// Reuses returns how many checkouts were served from the free set.
func (p *Pool) Reuses() int64 { return p.reuses.Load() }

// The state word of a Vector: Algorithm 1's n_rdrs in the low 32 bits, then
// the stale and deleted flags, then the header's generation, which every
// reuse advances (wrapping after 2^30 reuses).
const (
	readerMask = 1<<32 - 1
	staleBit   = 1 << 32
	deletedBit = 1 << 33
	genShift   = 34
)

// Vector is one ParameterVector instance (Algorithm 1). Theta is immutable
// once the vector has been published via a successful CAS on the global
// pointer; before publication it is private to the creating worker.
type Vector struct {
	Theta []float64
	// T is the sequence number of the most recent update folded into
	// Theta. For published vectors, T totally orders the published
	// history (paper P1). T is written only while the vector is private:
	// read it under a read registration, never through Peek alone — a
	// reclaimed header is reused and rewritten.
	T int64

	// ver is the chain version Theta is known to equal, or unknownVer: set
	// when the vector is parked and by the sparse publish, cleared by every
	// other writer and by Shared.Publish. On a published vector, ver == T
	// marks log as this vector's own change log; a dense publish leaves ver
	// unknown, so its head carries no log.
	ver int64

	// state packs n_rdrs, stale, deleted and the generation (see
	// readerMask): every transition of one life of the header is one
	// atomic operation on it.
	state atomic.Uint64
	pool  *Pool

	// log is the change log that travels with the vector through reuse.
	log changeLog
}

// New checks a Vector out of the pool. Theta content is unspecified; call
// RandInit or CopyFrom before use. A recycled vector still holds the chain
// version it was parked with, which is what lets the sparse publish
// (Shared.TryPublishSparse) refresh it at the changed components only; every
// other writer overwrites it whole.
func New(p *Pool) *Vector { return p.get() }

// RandInit fills Theta with N(0, sigma²) — Algorithm 1's rand_init.
func (v *Vector) RandInit(r *rng.Rand, sigma float64) {
	v.ver = unknownVer
	for i := range v.Theta {
		v.Theta[i] = sigma * r.NormFloat64()
	}
}

// CopyFrom copies src's parameter values and sequence number
// (Algorithm 3 lines 27-28).
func (v *Vector) CopyFrom(src *Vector) {
	v.ver = unknownVer
	copy(v.Theta, src.Theta)
	v.T = src.T
}

// Update applies θ ← θ − η·δ in place and advances the sequence number
// (Algorithm 1's update). It must only be called on vectors that are
// private to the caller or protected externally (the lock-based baseline).
// The arithmetic is tensor.AxpyTo's — the same kernel UpdateFrom runs — so
// SEQ, ASYNC and the Leashed publish produce identical values from identical
// inputs.
func (v *Vector) Update(delta []float64, eta float64) {
	v.ver = unknownVer
	v.T++
	tensor.AxpyTo(v.Theta, v.Theta, -eta, delta)
}

// updateBlock is how many elements UpdateFrom folds between two looks at
// src's stale flag: 128 KiB per stream. Chosen by measurement
// (docs/benchmarks.md "The dense publish"), not a knob: small enough that a
// lost attempt on a 1 MB vector stops within an eighth of the pass, large
// enough that the check (one shared cache line) and the kernel's restart do
// not show against the block's 3 × 128 KiB of traffic.
const updateBlock = 16384

// UpdateFrom builds the next version on top of src in ONE streaming pass:
// v.Theta = src.Theta − η·δ, v.T = src.T + 1 — Algorithm 3's copy (lines
// 27-28) and update fused, three memory streams instead of the five of
// CopyFrom followed by Update. v must be private to the caller and src
// read-protected by it.
//
// The pass gives up as soon as it cannot win: between blocks of updateBlock
// elements it checks src's stale flag, which the winner of a publish CAS
// sets on the vector it replaced. A stale src can no longer be the head, so
// a CAS from it could only fail; UpdateFrom then returns false with v's
// content unspecified (v stays private and reusable), and the caller treats
// the attempt as a lost CAS without issuing one. A vector of at most one
// block is never checked. On true the caller still has to win the CAS.
func (v *Vector) UpdateFrom(src *Vector, delta []float64, eta float64) bool {
	n := len(v.Theta)
	if len(src.Theta) != n || len(delta) != n {
		panic("paramvec: UpdateFrom length mismatch")
	}
	v.ver = unknownVer
	for lo := 0; lo < n; lo += updateBlock {
		if lo > 0 && src.Stale() {
			return false
		}
		hi := min(lo+updateBlock, n)
		tensor.AxpyTo(v.Theta[lo:hi], src.Theta[lo:hi], -eta, delta[lo:hi])
	}
	v.T = src.T + 1
	return true
}

// UpdateSparse applies θ[idx[k]−base] ← θ[idx[k]−base] − η·val[k] for each
// stored nonzero and advances the sequence number — the sparse counterpart
// of Update, touching only the components a minibatch's nonzeros hit. base
// shifts store-absolute CSR indices into this vector's local range (a chain
// vector covering [Lo, Hi) passes base = Lo). Like Update it must only be
// called on vectors private to the caller.
func (v *Vector) UpdateSparse(base int32, idx []int32, val []float64, eta float64) {
	v.ver = unknownVer
	v.T++
	theta := v.Theta
	val = val[:len(idx)]
	for k, j := range idx {
		theta[j-base] -= eta * val[k]
	}
}

// logCap is how many (version, component) entries a change log holds. Chosen
// by a paired sparse_scatter table over {4, 8, 16, 32} (docs/benchmarks.md
// "The sparse publish"), not a knob: long enough that a recycled buffer a few
// versions behind its head is almost always covered, short enough that
// carrying the predecessor's log forward costs less than the copy it saves.
const logCap = 8

// changeLog is a sparse-published vector's record of what changed: every
// chain-local component written by the versions (cover, T] of the vector's T,
// tagged with the version that wrote it, newest first. It is written while
// the vector is private, before the CAS, and never after: a published log is
// immutable until its buffer is recycled.
type changeLog struct {
	cover int64
	n     int
	t     [logCap]int64
	idx   [logCap]int32
}

// refresh makes v.Theta equal src.Theta, src being read-protected by the
// caller. When v holds a version the head's log reaches back to, only the
// components logged since that version are copied; otherwise it is the full
// copy of Algorithm 3 lines 27-28. Exact because a published Theta is
// immutable, a chain's T values are unique (so v holds exactly version
// v.ver) and every change in (cover, src.T] is in src's log. A v newer than
// src — checked out after the caller read src, from a loser parked at a
// later head — is copied in full.
func (v *Vector) refresh(src *Vector) {
	b, l := v.ver, &src.log
	if src.ver == src.T && l.cover <= b && b <= src.T {
		for k := 0; k < l.n && l.t[k] > b; k++ {
			j := l.idx[k]
			v.Theta[j] = src.Theta[j]
		}
	} else {
		copy(v.Theta, src.Theta)
	}
	v.ver = src.T
}

// logChanges writes v's change log just before its CAS: v's own components
// (store-absolute idx, shifted by base) tagged v.T, then as many whole
// versions of src's log as still fit, src being the head v was built on. A
// change set larger than the log leaves it empty with cover = v.T, which
// sends the next publisher to the full copy.
func (v *Vector) logChanges(src *Vector, base int32, idx []int32) {
	l := &v.log
	v.ver = v.T
	n := len(idx)
	if n > logCap {
		l.n, l.cover = 0, v.T
		return
	}
	for k, j := range idx {
		l.t[k], l.idx[k] = v.T, j-base
	}
	l.cover = src.T
	if sl := &src.log; src.ver == src.T {
		p := min(sl.n, logCap-n)
		if p == sl.n {
			l.cover = sl.cover
		} else {
			// Cut at a version boundary: a version is listed whole or not
			// at all, and the first one left out bounds the coverage.
			for p > 0 && sl.t[p-1] == sl.t[p] {
				p--
			}
			l.cover = sl.t[p]
		}
		copy(l.t[n:n+p], sl.t[:p])
		copy(l.idx[n:n+p], sl.idx[:p])
		n += p
	}
	l.n = n
}

// StartReading registers the caller as a reader (n_rdrs.fetch_add(1)).
func (v *Vector) StartReading() { v.state.Add(1) }

// startReading registers the caller and returns the generation the
// registration counts in.
func (v *Vector) startReading() uint64 { return v.state.Add(1) >> genShift }

// StopReading deregisters the caller and attempts safe recycling, exactly
// Algorithm 1's stop_reading. The caller must hold a registration that
// Latest (or a lease) confirmed: such a registration keeps the header's
// generation from advancing, so it is counted in the current one.
func (v *Vector) StopReading() {
	if s := v.state.Add(^uint64(0)); s&(readerMask|staleBit|deletedBit) == staleBit {
		v.reclaim(s)
	}
}

// stopReadingGen withdraws a registration made in generation g that Latest
// did not confirm. If the header has been reused since, the reuse already
// discarded the registration and there is nothing to withdraw: a late
// reader never touches the count, or reclaims, a later life.
func (v *Vector) stopReadingGen(g uint64) {
	for {
		s := v.state.Load()
		if s>>genShift != g {
			return
		}
		if v.state.CompareAndSwap(s, s-1) {
			v.reclaim(s - 1)
			return
		}
	}
}

// MarkStale labels the vector as superseded (set after a successful publish
// CAS replaces it, Algorithm 3 line 33). Once stale, latest_pointer will
// refuse to return it and it becomes a recycling candidate.
func (v *Vector) MarkStale() { v.state.Or(staleBit) }

// Stale reports whether the vector has been superseded.
func (v *Vector) Stale() bool { return v.state.Load()&staleBit != 0 }

// Readers returns the current reader count (metadata for tests/inspection).
func (v *Vector) Readers() int64 { return int64(v.state.Load() & readerMask) }

// Deleted reports whether the vector has been reclaimed.
func (v *Vector) Deleted() bool { return v.state.Load()&deletedBit != 0 }

// SafeDelete reclaims the vector iff the Algorithm 1 line 8 condition
// holds: stale ∧ n_rdrs = 0 ∧ CAS(deleted, false, true). It returns whether
// this call performed the reclamation.
//
// The condition is exactly the paper's: stale guarantees no *new* readers
// can acquire the vector (latest_pointer re-checks P and staleness after
// start_reading and backs off), n_rdrs = 0 guarantees no current reader,
// and the CAS ensures a single reclaimer. A reader that raced past the
// pointer fetch but has not yet called StartReading is harmless: it will
// observe the change afterwards and retry without touching Theta.
func (v *Vector) SafeDelete() bool { return v.reclaim(v.state.Load()) }

// reclaim is SafeDelete from an observed state s: while s shows a stale,
// unread, undeleted vector, one CAS on the whole word sets deleted. The word
// carries the generation, so an observation of one life can never reclaim
// the next.
func (v *Vector) reclaim(s uint64) bool {
	for s&(readerMask|staleBit|deletedBit) == staleBit {
		if v.state.CompareAndSwap(s, s|deletedBit) {
			v.recycle(v.T)
			return true
		}
		s = v.state.Load()
	}
	return false
}

// Release returns a never-published vector to the pool (the
// persistence-bound abort path, Algorithm 3 line 38: delete new_param),
// with the version its content is known to equal. The vector must be private
// to the caller.
func (v *Vector) Release() {
	if v.markDeleted() {
		v.recycle(v.ver)
	}
}

// Discard drops a never-published vector whose content nothing vouches for —
// one a panic interrupted mid-write: it leaves the pool's live count and is
// never parked, so no checkout can reuse a half-written buffer or its change
// log. The vector must be private to the caller.
func (v *Vector) Discard() {
	if v.markDeleted() {
		v.pool.live.Add(-1)
	}
}

// markDeleted sets the deleted flag of a private vector and reports whether
// this call set it.
func (v *Vector) markDeleted() bool {
	for {
		s := v.state.Load()
		if s&deletedBit != 0 {
			return false
		}
		if v.state.CompareAndSwap(s, s|deletedBit) {
			return true
		}
	}
}

// renew starts the next life of a reclaimed header taken from the free set:
// the generation advances and the reader count and both flags clear in one
// CAS. A count still there belongs to a reader that registered after the
// reclamation and will find P moved; it is discarded with the old life.
func (v *Vector) renew() {
	for {
		s := v.state.Load()
		if v.state.CompareAndSwap(s, (s>>genShift+1)<<genShift) {
			return
		}
	}
}

// recycle parks v in its pool as version ver. A published vector's buffer is
// exactly version T: its Theta never changed after the CAS, and no other
// vector of the chain has that T.
func (v *Vector) recycle(ver int64) {
	v.ver = ver
	v.pool.put(v)
}

// Shared is the published-pointer cell P from Algorithm 3, wrapping the
// atomic pointer plus the acquire protocol. Callers manage the buffers: each
// chain of a Store holds one Shared next to its pool, and the
// one-chain store is the paper's single P.
type Shared struct {
	p atomic.Pointer[Vector]
}

// Publish installs v unconditionally (initialization only). Its Theta was
// written by the caller, so no change log describes it.
func (s *Shared) Publish(v *Vector) {
	v.ver = unknownVer
	s.p.Store(v)
}

// TryPublish is the LAU-SPC publish step: a single CAS replacing expected
// with v (Algorithm 3 line 31). On success the replaced vector is marked
// stale and offered for recycling, and TryPublish returns true.
func (s *Shared) TryPublish(expected, v *Vector) bool {
	if !s.p.CompareAndSwap(expected, v) {
		return false
	}
	expected.reclaim(expected.state.Or(staleBit) | staleBit)
	return true
}

// TryPublishSparse is the scatter-publish step of the sparse delta path: one
// LAU-SPC attempt of the private vector v on top of expected, which the
// caller read-protects for the whole call. It
//
//  1. refreshes v to expected's Θ — only at the components expected's change
//     log lists since the version v already holds, or by a full copy when
//     the log does not reach back that far (Vector.refresh);
//  2. folds the sparse delta in (indices shifted by base, see
//     Vector.UpdateSparse) and writes v's own change log;
//  3. tries the same single CAS as TryPublish. On a lost CAS it restores its
//     own components from expected, so v is clean at expected.T and the
//     caller's retry (or Release) refreshes from there.
//
// v is recycled or retried by the caller exactly as a densely updated vector
// would be.
func (s *Shared) TryPublishSparse(expected, v *Vector, base int32, idx []int32, val []float64, eta float64) bool {
	v.refresh(expected)
	v.T = expected.T
	v.UpdateSparse(base, idx, val, eta)
	v.logChanges(expected, base, idx)
	if s.TryPublish(expected, v) {
		return true
	}
	for _, j := range idx {
		v.Theta[j-base] = expected.Theta[j-base]
	}
	v.ver = expected.T
	return false
}

// Latest is Algorithm 3's latest_pointer(): fetch the published pointer,
// register as reader, and confirm the registration — P still holds the
// vector, and the vector is in the generation the registration counted in and
// not stale; otherwise withdraw and retry. Re-checking P closes the ABA a
// reused header opens: a reader that fetched P before its head was
// reclaimed, reused privately and possibly republished registers either on
// a header P no longer holds (withdrawn, never returned) or on the
// republished head itself, which its confirmed registration then protects.
// The returned vector is protected from recycling until the caller invokes
// StopReading. The loop is lock-free: a retry implies another thread
// published.
func (s *Shared) Latest() *Vector {
	for {
		if v := s.p.Load(); s.register(v) {
			return v
		}
	}
}

// register is one try of Latest on a fetched pointer v: it registers and
// either confirms the registration (true) or withdraws it (false).
func (s *Shared) register(v *Vector) bool {
	g := v.startReading()
	// P first, then the state: the generation still g after P held v means
	// it was g throughout, so v was published in the life counted in. The
	// masked compare is gen == g, not stale, not deleted.
	if s.p.Load() == v && v.state.Load()&^readerMask == g<<genShift {
		return true
	}
	v.stopReadingGen(g)
	return false
}

// Peek returns the current published vector WITHOUT read protection. Only
// for monitoring/tests that tolerate a stale snapshot; never use the
// returned Theta without holding a read registration.
func (s *Shared) Peek() *Vector {
	return s.p.Load()
}
