package paramvec

import (
	"fmt"
	"sync/atomic"
)

// Range is a half-open index interval [Lo, Hi) of the flat parameter vector
// covered by one shard.
type Range struct {
	Lo, Hi int
}

// Len returns the number of components in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// ShardBounds partitions [0, dim) into shards contiguous near-equal ranges.
// The remainder dim mod shards is spread one component each over the first
// shards, so |len(i) - len(j)| <= 1 for all i, j. shards is clamped to
// [1, dim].
func ShardBounds(dim, shards int) []Range {
	if dim <= 0 {
		panic("paramvec: ShardBounds dimension must be positive")
	}
	if shards < 1 {
		shards = 1
	}
	if shards > dim {
		shards = dim
	}
	out := make([]Range, shards)
	base := dim / shards
	rem := dim % shards
	lo := 0
	for s := range out {
		n := base
		if s < rem {
			n++
		}
		out[s] = Range{Lo: lo, Hi: lo + n}
		lo += n
	}
	return out
}

// shardCell is one shard's publication state. The padding keeps each cell's
// hot atomic pointer on its own cache-line pair so that CAS traffic on one
// shard does not invalidate its neighbours (false sharing would reintroduce
// the very contention sharding removes).
type shardCell struct {
	shared Shared // 8 bytes
	pool   *Pool  // 8 bytes
	rng    Range  // 16 bytes
	_      [96]byte
}

// Store is the chain store, the one publication surface of the SGD layer:
// the flat parameter vector split into S contiguous chains, each with its
// own lock-free latest-pointer cell (Shared), buffer pool and sequence
// counter. Workers run the LAU-SPC publish protocol per chain, so two
// workers conflict only when they publish the *same* chain concurrently:
// expected CAS contention scales as ~1/S. The price is that the vector as a
// whole no longer has a single totally-ordered history — each chain is
// ordered (paper P1 holds per chain), and cross-chain consistency is
// recovered at read time by sequence validation (Lease, SnapshotConsistent).
//
// With S = 1 it is exactly the paper's Algorithm 3: one Shared cell P over
// the whole vector, one pool, one totally ordered history.
type Store struct {
	cells []shardCell
	dim   int
	// offs are the chain boundaries, chain c being [offs[c], offs[c+1]),
	// and all lists 0, 1, …, C−1: built once here for every Lease and
	// every SGD step that walks the chains.
	offs, all []int
	retired   atomic.Bool
	// probe, when set (tests only), counts the chain-head accesses that
	// reach the store through ChainLatest and ChainPeek.
	probe *headCount
}

// headCount is a test's tally of a store's chain-head accesses.
type headCount struct{ latest, peek atomic.Int64 }

// NewStore builds the store for a dim-dimensional vector split into chains
// publish chains (clamped to [1, dim]). No vector is published yet; call
// PublishInit before any ChainLatest.
func NewStore(dim, chains int) *Store {
	bounds := ShardBounds(dim, chains)
	ss := &Store{cells: make([]shardCell, len(bounds)), dim: dim,
		offs: make([]int, len(bounds)+1), all: make([]int, len(bounds))}
	for c, r := range bounds {
		ss.cells[c].rng = r
		ss.cells[c].pool = NewPool(r.Len())
		ss.offs[c+1] = r.Hi
		ss.all[c] = c
	}
	return ss
}

// Chains returns S: every shard is one independent publish chain.
func (ss *Store) Chains() int { return len(ss.cells) }

// ChainRange returns shard c's index interval in the flat vector.
func (ss *Store) ChainRange(c int) Range { return ss.cells[c].rng }

// NewChainVec checks a shard-c-sized vector out of shard c's pool. A
// recycled vector comes with the chain version it holds, so a sparse publish
// into it refreshes only what changed since.
func (ss *Store) NewChainVec(c int) *Vector { return New(ss.cells[c].pool) }

// Offsets returns the chain boundaries: chain c is [offs[c], offs[c+1]).
// The slice is the store's own and must not be modified.
func (ss *Store) Offsets() []int { return ss.offs }

// ChainLatest acquires shard c's latest published vector with the
// read-protection protocol; the caller must StopReading it.
func (ss *Store) ChainLatest(c int) *Vector {
	if p := ss.probe; p != nil {
		p.latest.Add(1)
	}
	return ss.cells[c].shared.Latest()
}

// ChainTryPublish runs the LAU-SPC publish CAS on shard c.
func (ss *Store) ChainTryPublish(c int, expected, v *Vector) bool {
	return ss.cells[c].shared.TryPublish(expected, v)
}

// ChainTryPublishSparse runs the sparse scatter-publish on shard c: the
// store-absolute indices (restricted to shard c's range by the caller) are
// shifted to shard-local positions via the shard's lower bound.
func (ss *Store) ChainTryPublishSparse(c int, expected, v *Vector, idx []int32, val []float64, eta float64) bool {
	cell := &ss.cells[c]
	return cell.shared.TryPublishSparse(expected, v, int32(cell.rng.Lo), idx, val, eta)
}

// ChainPeek returns shard c's published vector without read protection
// (monitoring and seqlock validation only).
func (ss *Store) ChainPeek(c int) *Vector {
	if p := ss.probe; p != nil {
		p.peek.Add(1)
	}
	return ss.cells[c].shared.Peek()
}

// Dim returns the full vector dimension d.
func (ss *Store) Dim() int { return ss.dim }

// SetPoison enables buffer poisoning on every shard pool (tests only).
func (ss *Store) SetPoison(on bool) {
	for s := range ss.cells {
		ss.cells[s].pool.SetPoison(on)
	}
}

// PublishInit slices theta into the shards and publishes each segment
// unconditionally (initialization only; the sharded analogue of
// Shared.Publish). theta must have length Dim.
func (ss *Store) PublishInit(theta []float64) {
	if len(theta) != ss.dim {
		panic(fmt.Sprintf("paramvec: PublishInit got %d values, want %d", len(theta), ss.dim))
	}
	for s := range ss.cells {
		c := &ss.cells[s]
		v := New(c.pool)
		copy(v.Theta, theta[c.rng.Lo:c.rng.Hi])
		c.shared.Publish(v)
	}
}

// Snapshot copies every shard's latest published segment into dst under read
// protection and returns the per-shard sequence numbers that were copied.
// Each shard segment is guaranteed untorn — it is one published, immutable
// vector — but different shards may come from different global moments
// (cross-shard skew). seqs is reused when it has capacity.
func (ss *Store) Snapshot(dst []float64, seqs []int64) []int64 {
	if len(dst) != ss.dim {
		panic(fmt.Sprintf("paramvec: Snapshot dst has %d values, want %d", len(dst), ss.dim))
	}
	if cap(seqs) < len(ss.cells) {
		seqs = make([]int64, len(ss.cells))
	}
	seqs = seqs[:len(ss.cells)]
	for s := range ss.cells {
		c := &ss.cells[s]
		v := c.shared.Latest()
		copy(dst[c.rng.Lo:c.rng.Hi], v.Theta)
		seqs[s] = v.T
		v.StopReading()
	}
	return seqs
}

// snapshotMaxPasses bounds SnapshotConsistent's copy passes. A snapshot that
// cannot reach a clean pass under sustained publishing reports failure
// rather than spinning: the caller keeps its previous consistent state or
// tolerates the skew.
const snapshotMaxPasses = 64

// SnapshotConsistent copies one cross-chain-consistent global state of the
// store into dst. seqs is the caller's per-chain baseline — the chain
// versions dst already holds, as returned by an earlier call for the same dst
// — or nil when dst is cold. Each pass copies, under read protection, only
// the chains whose head sequence number differs from the baseline and
// advances the baseline to it. A pass that copies nothing proves the state
// consistent: every chain's version was the head both when it was copied (or
// last observed) and when this pass checked it, and sequence numbers only
// grow, so all chains held those versions at once just before the pass began.
// One chain needs no clean pass: its copy is one immutable published vector,
// a true global state even while publishers run.
//
// It returns the baseline of what dst now holds and whether the copy is
// consistent. After snapshotMaxPasses passes without a clean one it reports
// false: each chain segment of dst is still untorn and matches its returned
// seq, but the chains may come from different moments, and a later call with
// that baseline resumes incrementally.
func (ss *Store) SnapshotConsistent(dst []float64, seqs []int64) ([]int64, bool) {
	if len(dst) != ss.dim {
		panic(fmt.Sprintf("paramvec: SnapshotConsistent dst has %d values, want %d", len(dst), ss.dim))
	}
	if len(seqs) != len(ss.cells) {
		seqs = make([]int64, len(ss.cells))
		for c := range seqs {
			seqs[c] = unknownVer
		}
	}
	for pass := 0; pass < snapshotMaxPasses; pass++ {
		copied := 0
		for c := range ss.cells {
			v := ss.ChainLatest(c)
			if v.T != seqs[c] {
				r := ss.cells[c].rng
				copy(dst[r.Lo:r.Hi], v.Theta)
				seqs[c] = v.T
				copied++
			}
			v.StopReading()
		}
		if copied == 0 || len(ss.cells) == 1 {
			return seqs, true
		}
	}
	return seqs, false
}

// sum adds one gauge over every shard pool.
func (ss *Store) sum(gauge func(*Pool) int64) int64 {
	var n int64
	for s := range ss.cells {
		n += gauge(ss.cells[s].pool)
	}
	return n
}

// Live sums the live-buffer gauges of every shard pool. One full-vector
// equivalent counts as S shard buffers of total size d.
func (ss *Store) Live() int64 { return ss.sum((*Pool).Live) }

// Peak sums the per-shard peak gauges. The shards peak at different moments,
// so this is an upper bound on the true simultaneous peak.
func (ss *Store) Peak() int64 { return ss.sum((*Pool).Peak) }

// Allocs sums heap allocations across shard pools.
func (ss *Store) Allocs() int64 { return ss.sum((*Pool).Allocs) }

// Reuses sums free-set reuses across shard pools.
func (ss *Store) Reuses() int64 { return ss.sum((*Pool).Reuses) }

// Retire marks the store retired, drains every shard pool's free set, and
// marks each shard's published vector stale and offered for recycling
// (end-of-run cleanup; the pool gauges drain to zero once the last reader
// leaves). After Retire, Lease.Acquire panics — the latest-pointer loop on
// an all-stale chain would never terminate — and buffers released by late
// lease holders are dropped, not recycled into the dead pools. The retired
// flag is set before any head goes stale, so a concurrent Lease.Acquire
// either sees the flag and panics or wins the race and leases a still-valid
// head under read protection.
func (ss *Store) Retire() {
	ss.retired.Store(true)
	for s := range ss.cells {
		ss.cells[s].pool.Retire()
	}
	for s := range ss.cells {
		v := ss.cells[s].shared.Peek()
		v.MarkStale()
		v.SafeDelete()
	}
}

// Retired reports whether the store has been retired; a lease released
// after retirement labels itself with it (Lease.RetiredStore).
func (ss *Store) Retired() bool { return ss.retired.Load() }

// ParamStore and NewSingle are the names the benchmark module (bench/) uses
// for *Store and NewStore(dim, 1). That module is edited only together with
// the benchmark contract, so both stay until it switches over (ROADMAP chore
// 1(b)(vi)); code in this module uses Store and NewStore.
type ParamStore = *Store

// NewSingle is NewStore(dim, 1); see ParamStore.
func NewSingle(dim int) *Store { return NewStore(dim, 1) }
