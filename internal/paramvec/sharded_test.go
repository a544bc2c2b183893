package paramvec

import (
	"sync"
	"sync/atomic"
	"testing"

	"leashedsgd/internal/rng"
)

func TestShardBoundsPartition(t *testing.T) {
	cases := []struct {
		dim, shards, want int
	}{
		{10, 1, 1},
		{10, 3, 3},
		{10, 10, 10},
		{10, 99, 10}, // clamps to dim
		{7, 0, 1},    // clamps to 1
		{7, -3, 1},
		{134794, 8, 8},
	}
	for _, c := range cases {
		bounds := ShardBounds(c.dim, c.shards)
		if len(bounds) != c.want {
			t.Fatalf("ShardBounds(%d,%d): %d shards, want %d", c.dim, c.shards, len(bounds), c.want)
		}
		// Contiguous cover of [0, dim), near-equal sizes.
		lo := 0
		minLen, maxLen := c.dim+1, 0
		for _, r := range bounds {
			if r.Lo != lo {
				t.Fatalf("ShardBounds(%d,%d): gap at %d (got Lo=%d)", c.dim, c.shards, lo, r.Lo)
			}
			if r.Len() <= 0 {
				t.Fatalf("ShardBounds(%d,%d): empty shard %v", c.dim, c.shards, r)
			}
			if r.Len() < minLen {
				minLen = r.Len()
			}
			if r.Len() > maxLen {
				maxLen = r.Len()
			}
			lo = r.Hi
		}
		if lo != c.dim {
			t.Fatalf("ShardBounds(%d,%d): covers [0,%d), want [0,%d)", c.dim, c.shards, lo, c.dim)
		}
		if maxLen-minLen > 1 {
			t.Fatalf("ShardBounds(%d,%d): shard sizes %d..%d differ by more than 1", c.dim, c.shards, minLen, maxLen)
		}
	}
}

func TestShardBoundsRejectsBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ShardBounds(0, 1) did not panic")
		}
	}()
	ShardBounds(0, 1)
}

func TestShardedPublishInitAndSnapshot(t *testing.T) {
	const dim = 11
	ss := NewStore(dim, 4)
	theta := make([]float64, dim)
	for i := range theta {
		theta[i] = float64(i)
	}
	ss.PublishInit(theta)
	dst := make([]float64, dim)
	seqs := ss.Snapshot(dst, nil)
	if len(seqs) != ss.Chains() {
		t.Fatalf("snapshot returned %d seqs, want %d", len(seqs), ss.Chains())
	}
	for i := range theta {
		if dst[i] != theta[i] {
			t.Fatalf("snapshot[%d] = %v, want %v", i, dst[i], theta[i])
		}
	}
	for s, q := range seqs {
		if q != 0 {
			t.Fatalf("initial seq of shard %d = %d, want 0", s, q)
		}
	}
}

func TestShardedSingleShardMatchesShared(t *testing.T) {
	// S=1 is exactly one chain over the whole vector with the Shared cell's
	// CAS semantics: the paper's single published pointer.
	ss := NewStore(8, 1)
	if ss.Chains() != 1 {
		t.Fatalf("Chains = %d", ss.Chains())
	}
	if r := ss.ChainRange(0); r.Lo != 0 || r.Hi != 8 {
		t.Fatalf("shard range = %v", r)
	}
	ss.PublishInit(make([]float64, 8))
	v0 := ss.ChainLatest(0)
	v0.StopReading()
	nv := ss.NewChainVec(0)
	nv.CopyFrom(v0)
	nv.T++
	if !ss.ChainTryPublish(0, v0, nv) {
		t.Fatal("ChainTryPublish failed with correct expected pointer")
	}
	if !v0.Stale() || !v0.Deleted() {
		t.Fatal("replaced shard vector not stale+reclaimed")
	}
	// Outdated expected pointer must fail, matching Shared.
	other := ss.NewChainVec(0)
	if ss.ChainTryPublish(0, v0, other) {
		t.Fatal("ChainTryPublish succeeded with stale expected pointer")
	}
	other.Release()
}

func TestShardedPerShardChainsIndependent(t *testing.T) {
	ss := NewStore(12, 3)
	ss.PublishInit(make([]float64, 12))
	// Publish 3 updates to shard 1 only; the other chains must not move.
	for i := 0; i < 3; i++ {
		cur := ss.ChainLatest(1)
		nv := ss.NewChainVec(1)
		nv.CopyFrom(cur)
		cur.StopReading()
		nv.T++
		if !ss.ChainTryPublish(1, cur, nv) {
			t.Fatal("uncontended publish failed")
		}
	}
	dst := make([]float64, 12)
	seqs := ss.Snapshot(dst, nil)
	if seqs[0] != 0 || seqs[1] != 3 || seqs[2] != 0 {
		t.Fatalf("per-shard seqs = %v, want [0 3 0]", seqs)
	}
}

// TestShardedSnapshotNeverTorn is the snapshot-consistency proof: publishers
// keep every component of a shard segment equal to that shard's sequence
// number, so any snapshot that mixed two published states of one shard would
// contain a non-uniform segment. Concurrent snapshotters assert uniformity
// and agreement with the reported per-shard sequence number.
func TestShardedSnapshotNeverTorn(t *testing.T) {
	const dim = 48
	const shards = 4
	const publishers = 4
	const iters = 1500
	ss := NewStore(dim, shards)
	ss.SetPoison(true)
	ss.PublishInit(make([]float64, dim))

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s := (p + i) % shards
				nv := ss.NewChainVec(s)
				tries := 0
				for {
					cur := ss.ChainLatest(s)
					nv.CopyFrom(cur)
					cur.StopReading()
					nv.T++
					for j := range nv.Theta {
						nv.Theta[j] = float64(nv.T)
					}
					if ss.ChainTryPublish(s, cur, nv) {
						break
					}
					if tries++; tries > 3 {
						nv.Release()
						break
					}
				}
			}
		}(p)
	}

	var snaps atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, dim)
			var seqs []int64
			for n := 0; n < iters; n++ {
				seqs = ss.Snapshot(dst, seqs)
				for s := 0; s < shards; s++ {
					rng := ss.ChainRange(s)
					// Every published state of shard s has all components
					// equal to its sequence number (including the all-zero
					// T=0 initial state).
					want := float64(seqs[s])
					for i := rng.Lo; i < rng.Hi; i++ {
						if dst[i] != want {
							t.Errorf("torn shard %d: dst[%d]=%v, seq=%d", s, i, dst[i], seqs[s])
							return
						}
					}
				}
				snaps.Add(1)
			}
		}()
	}
	wg.Wait()
	if snaps.Load() == 0 {
		t.Fatal("no snapshots completed")
	}

	// Quiesced: SnapshotConsistent must validate immediately.
	dst := make([]float64, dim)
	if _, ok := ss.SnapshotConsistent(dst, nil); !ok {
		t.Fatal("SnapshotConsistent failed on a quiescent structure")
	}
}

// TestSingleChainSnapshotConsistentFirstAttempt: a one-chain snapshot is one
// immutable published vector, so SnapshotConsistent reports ok after a single
// pass even while a publisher keeps replacing the head — the clean pass a
// multi-chain store needs might never come here.
func TestSingleChainSnapshotConsistentFirstAttempt(t *testing.T) {
	const dim = 4096
	st := NewStore(dim, 1)
	st.PublishInit(make([]float64, dim))
	defer st.Retire()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			publishChain(st, 0, 1<<30)
		}
	}()
	defer func() { close(stop); <-done }()

	dst := make([]float64, dim)
	for i := 0; i < 200; i++ {
		seqs, ok := st.SnapshotConsistent(dst, nil)
		if !ok {
			t.Fatalf("snapshot %d: one-chain SnapshotConsistent not ok on its first attempt", i)
		}
		for j, v := range dst {
			if v != float64(seqs[0]) {
				t.Fatalf("snapshot %d: cell %d = %v, want the marker of seq %d", i, j, v, seqs[0])
			}
		}
	}
}

func TestSnapshotConsistentDetectsInterleavedPublish(t *testing.T) {
	ss := NewStore(8, 2)
	ss.PublishInit(make([]float64, 8))
	dst := make([]float64, 8)
	if _, ok := ss.SnapshotConsistent(dst, nil); !ok {
		t.Fatal("validation failed with no writers")
	}
	seqs, _ := ss.SnapshotConsistent(dst, nil)
	if seqs[0] != 0 || seqs[1] != 0 {
		t.Fatalf("seqs = %v", seqs)
	}
}

func TestShardedRetireDrainsPools(t *testing.T) {
	ss := NewStore(16, 4)
	ss.PublishInit(make([]float64, 16))
	if ss.Live() != 4 {
		t.Fatalf("live after init = %d, want 4", ss.Live())
	}
	// Publish two rounds on every shard: the first frees the initial
	// buffers into the pools, the second must reuse them.
	for round := 0; round < 2; round++ {
		for s := 0; s < 4; s++ {
			cur := ss.ChainLatest(s)
			nv := ss.NewChainVec(s)
			nv.CopyFrom(cur)
			cur.StopReading()
			nv.T++
			if !ss.ChainTryPublish(s, cur, nv) {
				t.Fatal("uncontended publish failed")
			}
		}
	}
	if ss.Live() != 4 {
		t.Fatalf("live after rounds = %d, want 4 (replaced buffers recycled)", ss.Live())
	}
	if ss.Reuses() == 0 {
		t.Fatal("shard pools never reused a buffer")
	}
	ss.Retire()
	if ss.Live() != 0 {
		t.Fatalf("live after Retire = %d, want 0", ss.Live())
	}
}

// contentionRounds drives the LAU-SPC publish protocol through a fixed
// interleaving in one goroutine: each round, every one of `workers` logical
// workers draws a target chain from a seeded generator, reads that chain's
// head and prepares its successor; only then do they CAS, in turn. A chain's
// head moves at the first CAS, so every later worker holding that head must
// lose: a round fails exactly workers − #distinct targets times. It returns
// the failures the store reported and that count.
func contentionRounds(workers, shards, dim, rounds int) (failed, want int64) {
	ss := NewStore(dim, shards)
	ss.PublishInit(make([]float64, dim))
	defer ss.Retire()
	draw := rng.New(7)
	target := make([]int, workers)
	cur := make([]*Vector, workers)
	nv := make([]*Vector, workers)
	hit := make([]bool, ss.Chains())
	for r := 0; r < rounds; r++ {
		clear(hit)
		distinct := 0
		for w := range target {
			s := draw.Intn(ss.Chains())
			if !hit[s] {
				hit[s] = true
				distinct++
			}
			target[w] = s
			cur[w] = ss.ChainLatest(s)
			nv[w] = ss.NewChainVec(s)
			nv[w].CopyFrom(cur[w])
			cur[w].StopReading()
			nv[w].T++
		}
		want += int64(workers - distinct)
		for w, s := range target {
			if !ss.ChainTryPublish(s, cur[w], nv[w]) {
				failed++
				nv[w].Release()
			}
		}
	}
	return failed, want
}

// TestShardingReducesCASContention is the ~1/S regression guard: 8 workers
// that all read before any of them publishes lose 7 CAS per round on a single
// chain, and only as many as share a target on 8 chains.
func TestShardingReducesCASContention(t *testing.T) {
	const workers, dim, rounds = 8, 512, 200
	single, _ := contentionRounds(workers, 1, dim, rounds)
	if want := int64(rounds * (workers - 1)); single != want {
		t.Fatalf("single chain: %d failed CAS, want %d = rounds·(workers−1)", single, want)
	}
	sharded, want := contentionRounds(workers, 8, dim, rounds)
	if sharded != want {
		t.Fatalf("8 shards: %d failed CAS, want %d = Σ(workers − distinct targets)", sharded, want)
	}
	if sharded >= single {
		t.Fatalf("8 shards saw %d failed CAS, single chain %d — sharding did not reduce contention",
			sharded, single)
	}
}

func TestShardedPublishInitRejectsWrongLength(t *testing.T) {
	ss := NewStore(8, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("PublishInit with wrong length did not panic")
		}
	}()
	ss.PublishInit(make([]float64, 7))
}
