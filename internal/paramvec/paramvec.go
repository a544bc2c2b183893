// Package paramvec implements the paper's ParameterVector data structure
// (Algorithm 1): the shared object holding the flattened model parameters
// theta together with the metadata — sequence number t, readers count
// n_rdrs, stale and deleted flags — that the Leashed-SGD algorithm uses for
// lock-free consistent reads and safe memory recycling.
//
// Memory recycling under a garbage collector: the paper's `delete theta`
// becomes "return the theta buffer to a free-list pool" guarded by the exact
// safe_delete condition of Algorithm 1 line 8 (stale ∧ n_rdrs = 0 ∧
// CAS(deleted, false, true)). Vector structs themselves are never reused —
// only their buffers — so pointer CAS on the global published pointer can
// never suffer ABA (a reclaimed-and-republished address), while the float
// buffers, the actual memory mass (d×8 bytes, d up to 134,794 here), are
// recycled just as in the paper. The Pool's accounting gauge measures live
// buffers, which is precisely the quantity Lemma 2 bounds by 3m.
//
// A recycled buffer is an older version of its own chain, and the pool
// remembers which one: SafeDelete parks a published buffer with its T. The
// sparse publish (Shared.TryPublishSparse) uses that to refresh a checked-out
// buffer from the head only at the components changed since, read off the
// head's change log, instead of copying the whole chain. This makes per-chain
// unique T load-bearing: a chain's T values must never repeat (each publish
// is its predecessor's T + 1 under the CAS, and PublishInit starts fresh pools
// at 0), or a buffer's version would name two different contents.
package paramvec

import (
	"math"
	"sync"
	"sync/atomic"

	"leashedsgd/internal/rng"
	"leashedsgd/internal/tensor"
)

// Pool allocates and recycles theta buffers of a fixed dimension and keeps
// the memory accounting for the Fig. 10 experiments: live buffer count,
// peak, and total allocations (allocations ≫ live demonstrates recycling).
type Pool struct {
	dim    int
	mu     sync.Mutex
	free   []freeBuf
	live   atomic.Int64
	peak   atomic.Int64
	allocs atomic.Int64
	reuses atomic.Int64
	// poison, when set (tests only), overwrites reclaimed buffers with NaN
	// so that any use-after-recycle read is detectable downstream.
	poison bool
	// dead marks a retired pool (guarded by mu): buffers returned after
	// retirement are dropped for the garbage collector instead of parked on
	// a free list nothing will ever check out of again.
	dead bool
}

// SetPoison enables test-mode poisoning of reclaimed buffers. Call before
// any concurrent use.
func (p *Pool) SetPoison(on bool) { p.poison = on }

// NewPool returns a pool of dimension-dim buffers.
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

// freeBuf is one parked buffer together with the chain version its content
// equals (unknownVer when none is known) and the change-log storage that
// travels with it (nil until the sparse publish first needs one).
type freeBuf struct {
	theta []float64
	ver   int64
	log   *changeLog
}

// getBuffer checks a buffer out: a recycled one when the free list has any,
// a fresh allocation (at unknownVer) otherwise. Callers either overwrite
// every element (a fused update, a copy or rand_init), so clearing would be
// wasted work on the hot path, or — the sparse publish — rewrite only the
// components changed since the buffer's version.
func (p *Pool) getBuffer() freeBuf {
	p.mu.Lock()
	n := len(p.free)
	var b freeBuf
	if n > 0 {
		b = p.free[n-1]
		p.free[n-1] = freeBuf{}
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if b.theta == nil {
		b = freeBuf{theta: make([]float64, p.dim), ver: unknownVer}
		p.allocs.Add(1)
	} else {
		p.reuses.Add(1)
	}
	live := p.live.Add(1)
	for {
		peak := p.peak.Load()
		if live <= peak || p.peak.CompareAndSwap(peak, live) {
			break
		}
	}
	return b
}

// putBuffer returns a buffer to the free list, or drops it when the pool has
// been retired (a late lease release against a dead epoch must not park
// memory forever). A poisoned buffer holds no version.
func (p *Pool) putBuffer(b freeBuf) {
	if p.poison {
		nan := math.NaN()
		for i := range b.theta {
			b.theta[i] = nan
		}
		b.ver = unknownVer
	}
	p.live.Add(-1)
	p.mu.Lock()
	if !p.dead {
		p.free = append(p.free, b)
	}
	p.mu.Unlock()
}

// Retire marks the pool dead and drains its free list. Outstanding buffers
// (e.g. protected by a still-held lease) stay valid; once returned they are
// released to the garbage collector rather than recycled.
func (p *Pool) Retire() {
	p.mu.Lock()
	p.dead = true
	p.free = nil
	p.mu.Unlock()
}

// Live returns the number of buffers currently checked out — the "number of
// ParameterVector instances" gauge of the memory experiments.
func (p *Pool) Live() int64 { return p.live.Load() }

// Peak returns the high-water mark of Live.
func (p *Pool) Peak() int64 { return p.peak.Load() }

// Allocs returns how many buffers were ever heap-allocated.
func (p *Pool) Allocs() int64 { return p.allocs.Load() }

// Reuses returns how many checkouts were served from the free list.
func (p *Pool) Reuses() int64 { return p.reuses.Load() }

// Vector is one ParameterVector instance (Algorithm 1). Theta is immutable
// once the vector has been published via a successful CAS on the global
// pointer; before publication it is private to the creating worker.
type Vector struct {
	Theta []float64
	// T is the sequence number of the most recent update folded into
	// Theta. For published vectors, T totally orders the published
	// history (paper P1).
	T int64

	// ver is the chain version Theta is known to equal, or unknownVer: set
	// from the pool at checkout and by the sparse publish, cleared by every
	// other writer and by Shared.Publish. On a published vector, ver == T
	// marks log as this vector's own change log; a dense publish leaves ver
	// unknown, so its head carries no log.
	ver int64
	// log is the change-log storage that travels with the buffer; nil until
	// the sparse publish first needs one.
	log *changeLog

	nRdrs   atomic.Int64
	stale   atomic.Bool
	deleted atomic.Bool
	pool    *Pool
}

// New checks a Vector out of the pool. Theta content is unspecified; call
// RandInit or CopyFrom before use. A recycled buffer still holds the chain
// version it was parked with, which is what lets the sparse publish
// (Shared.TryPublishSparse) refresh it at the changed components only; every
// other writer overwrites it whole.
func New(p *Pool) *Vector {
	b := p.getBuffer()
	return &Vector{Theta: b.theta, ver: b.ver, log: b.log, pool: p}
}

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
	b, l := v.ver, src.log
	if l != nil && src.ver == src.T && l.cover <= b && b <= src.T {
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
	l := v.log
	if l == nil {
		l = new(changeLog)
		v.log = l
	}
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
	if sl := src.log; sl != nil && src.ver == src.T {
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
func (v *Vector) StartReading() {
	v.nRdrs.Add(1)
}

// StopReading deregisters the caller and attempts safe recycling, exactly
// Algorithm 1's stop_reading.
func (v *Vector) StopReading() {
	v.nRdrs.Add(-1)
	v.SafeDelete()
}

// MarkStale labels the vector as superseded (set after a successful publish
// CAS replaces it, Algorithm 3 line 33). Once stale, latest_pointer will
// refuse to return it and it becomes a recycling candidate.
func (v *Vector) MarkStale() {
	v.stale.Store(true)
}

// Stale reports whether the vector has been superseded.
func (v *Vector) Stale() bool { return v.stale.Load() }

// Readers returns the current reader count (metadata for tests/inspection).
func (v *Vector) Readers() int64 { return v.nRdrs.Load() }

// Deleted reports whether the buffer has been reclaimed.
func (v *Vector) Deleted() bool { return v.deleted.Load() }

// SafeDelete reclaims the theta buffer iff the Algorithm 1 line 8 condition
// holds: stale ∧ n_rdrs = 0 ∧ CAS(deleted, false, true). It returns whether
// this call performed the reclamation.
//
// The condition is exactly the paper's: stale guarantees no *new* readers
// can acquire the vector (latest_pointer re-checks staleness after
// start_reading and backs off), n_rdrs = 0 guarantees no current reader,
// and the CAS ensures a single reclaimer. A reader that raced past the
// pointer fetch but has not yet called StartReading is harmless: it will
// observe stale afterwards and retry without touching Theta.
func (v *Vector) SafeDelete() bool {
	if v.stale.Load() && v.nRdrs.Load() == 0 && v.deleted.CompareAndSwap(false, true) {
		v.recycle(v.T)
		return true
	}
	return false
}

// Release returns a never-published vector's buffer to the pool (the
// persistence-bound abort path, Algorithm 3 line 38: delete new_param),
// with the version its content is known to equal. The vector must be private
// to the caller.
func (v *Vector) Release() {
	if v.deleted.CompareAndSwap(false, true) {
		v.recycle(v.ver)
	}
}

// recycle parks v's buffer and log in its pool as version ver. A published
// vector's buffer is exactly version T: its Theta never changed after the
// CAS, and no other vector of the chain has that T.
func (v *Vector) recycle(ver int64) {
	b := freeBuf{theta: v.Theta, ver: ver, log: v.log}
	v.Theta, v.log = nil, nil
	v.pool.putBuffer(b)
}

// Shared is the published-pointer cell P from Algorithm 3, wrapping the
// atomic pointer plus the acquire protocol. Callers manage the buffers: each
// chain of a ShardedShared holds one Shared next to its pool, and the
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
	expected.MarkStale()
	expected.SafeDelete()
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
// register as reader, re-check staleness; on staleness deregister and retry.
// The returned vector is protected from recycling until the caller invokes
// StopReading. The loop is lock-free: a retry implies another thread
// published (system-wide progress).
func (s *Shared) Latest() *Vector {
	for {
		v := s.p.Load()
		v.StartReading()
		if !v.Stale() {
			return v
		}
		v.StopReading()
	}
}

// Peek returns the current published vector WITHOUT read protection. Only
// for monitoring/tests that tolerate a stale snapshot; never use the
// returned Theta without holding a read registration.
func (s *Shared) Peek() *Vector {
	return s.p.Load()
}
