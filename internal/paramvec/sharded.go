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

// ShardedShared splits the published parameter vector into S contiguous
// shards, each with its own lock-free latest-pointer chain, buffer pool and
// sequence counter. Workers run the LAU-SPC publish protocol per shard, so
// two workers conflict only when they publish the *same* shard concurrently:
// expected CAS contention scales as ~1/S. The price is that the vector as a
// whole no longer has a single totally-ordered history — each shard's chain
// is ordered (paper P1 holds per shard), and cross-shard consistency is
// recovered at snapshot time via per-shard sequence validation.
//
// With S = 1 it is exactly the paper's single chain: one Shared cell P over
// the whole vector, one pool, one totally ordered history.
type ShardedShared struct {
	cells   []shardCell
	dim     int
	retired atomic.Bool
}

// NewSharded builds a sharded publication cell for a dim-dimensional vector
// split into shards parts (clamped to [1, dim]). No vector is published yet;
// call PublishInit before any ChainLatest.
func NewSharded(dim, shards int) *ShardedShared {
	bounds := ShardBounds(dim, shards)
	ss := &ShardedShared{cells: make([]shardCell, len(bounds)), dim: dim}
	for s, r := range bounds {
		ss.cells[s].rng = r
		ss.cells[s].pool = NewPool(r.Len())
	}
	return ss
}

// Chains returns S: every shard is one independent publish chain.
func (ss *ShardedShared) Chains() int { return len(ss.cells) }

// ChainRange returns shard c's index interval in the flat vector.
func (ss *ShardedShared) ChainRange(c int) Range { return ss.cells[c].rng }

// NewChainVec checks a shard-c-sized vector out of shard c's pool. A
// recycled buffer comes with the chain version it holds, so a sparse publish
// into it refreshes only what changed since.
func (ss *ShardedShared) NewChainVec(c int) *Vector { return New(ss.cells[c].pool) }

// ChainLatest acquires shard c's latest published vector with the
// read-protection protocol; the caller must StopReading it.
func (ss *ShardedShared) ChainLatest(c int) *Vector { return ss.cells[c].shared.Latest() }

// ChainTryPublish runs the LAU-SPC publish CAS on shard c.
func (ss *ShardedShared) ChainTryPublish(c int, expected, v *Vector) bool {
	return ss.cells[c].shared.TryPublish(expected, v)
}

// ChainTryPublishSparse runs the sparse scatter-publish on shard c: the
// store-absolute indices (restricted to shard c's range by the caller) are
// shifted to shard-local positions via the shard's lower bound.
func (ss *ShardedShared) ChainTryPublishSparse(c int, expected, v *Vector, idx []int32, val []float64, eta float64) bool {
	cell := &ss.cells[c]
	return cell.shared.TryPublishSparse(expected, v, int32(cell.rng.Lo), idx, val, eta)
}

// ChainPeek returns shard c's published vector without read protection
// (monitoring only).
func (ss *ShardedShared) ChainPeek(c int) *Vector { return ss.cells[c].shared.Peek() }

// Dim returns the full vector dimension d.
func (ss *ShardedShared) Dim() int { return ss.dim }

// SetPoison enables buffer poisoning on every shard pool (tests only).
func (ss *ShardedShared) SetPoison(on bool) {
	for s := range ss.cells {
		ss.cells[s].pool.SetPoison(on)
	}
}

// PublishInit slices theta into the shards and publishes each segment
// unconditionally (initialization only; the sharded analogue of
// Shared.Publish). theta must have length Dim.
func (ss *ShardedShared) PublishInit(theta []float64) {
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
func (ss *ShardedShared) Snapshot(dst []float64, seqs []int64) []int64 {
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

// SnapshotConsistent attempts a cross-shard-consistent snapshot using
// per-shard sequence validation (a seqlock over the shard chains): copy all
// shards recording each shard's sequence number, then re-read every shard's
// published sequence — if none advanced during the copy, no publish
// interleaved and the snapshot is a true global state. It retries up to
// attempts times and reports whether validation succeeded; on failure dst
// still holds the last (per-shard-untorn, possibly cross-shard-skewed)
// snapshot. Under sustained publishing validation may never pass — callers
// on a hot path should use Snapshot and tolerate skew. One chain needs no
// validation: its snapshot is one immutable published vector, a true global
// state on the first attempt even while publishers run.
func (ss *ShardedShared) SnapshotConsistent(dst []float64, attempts int) ([]int64, bool) {
	if len(ss.cells) == 1 {
		return ss.Snapshot(dst, nil), true
	}
	var seqs []int64
	for try := 0; try < attempts; try++ {
		seqs = ss.Snapshot(dst, seqs)
		stable := true
		for s := range ss.cells {
			if ss.cells[s].shared.Peek().T != seqs[s] {
				stable = false
				break
			}
		}
		if stable {
			return seqs, true
		}
	}
	return seqs, false
}

// sum adds one gauge over every shard pool.
func (ss *ShardedShared) sum(gauge func(*Pool) int64) int64 {
	var n int64
	for s := range ss.cells {
		n += gauge(ss.cells[s].pool)
	}
	return n
}

// Live sums the live-buffer gauges of every shard pool. One full-vector
// equivalent counts as S shard buffers of total size d.
func (ss *ShardedShared) Live() int64 { return ss.sum((*Pool).Live) }

// Peak sums the per-shard peak gauges. The shards peak at different moments,
// so this is an upper bound on the true simultaneous peak.
func (ss *ShardedShared) Peak() int64 { return ss.sum((*Pool).Peak) }

// Allocs sums heap allocations across shard pools.
func (ss *ShardedShared) Allocs() int64 { return ss.sum((*Pool).Allocs) }

// Reuses sums free-list reuses across shard pools.
func (ss *ShardedShared) Reuses() int64 { return ss.sum((*Pool).Reuses) }

// Retire marks the store retired, drains every shard pool's free list, and
// marks each shard's published vector stale and offered for recycling
// (end-of-run cleanup; the pool gauges drain to zero once the last reader
// leaves). The retired flag is set before any head goes stale, so a
// concurrent Lease.Acquire either sees the flag and panics or wins the race
// and leases a still-valid head under read protection.
func (ss *ShardedShared) Retire() {
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

// Retired reports whether the store has been retired.
func (ss *ShardedShared) Retired() bool { return ss.retired.Load() }
