package paramvec

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// The store conformance suite: every property the SGD layer relies on, run
// table-driven over the chain store at one chain (the paper's single Shared
// cell) and at four. The ReadFront rows serve the same stores' snapshot reads
// from a ReadFront folding from them (frontCase), so the fold's output is
// held to the suite's snapshot contracts too.
func storeCases(dim int) []struct {
	name  string
	build func() *storeCase
} {
	return []struct {
		name  string
		build func() *storeCase
	}{
		{"Shared", func() *storeCase { return plainCase(NewStore(dim, 1)) }},
		{"ShardedShared", func() *storeCase { return plainCase(NewStore(dim, 4)) }},
		{"ReadFront/Shared", func() *storeCase { return frontCase(NewStore(dim, 1)) }},
		{"ReadFront/Sharded", func() *storeCase { return frontCase(NewStore(dim, 4)) }},
	}
}

// storeCase is one row's store and the functions the suite initializes,
// snapshots and retires it through. Chain reads and writes go to st itself.
type storeCase struct {
	st                 *Store
	publishInit        func(theta []float64)
	snapshot           func(dst []float64, seqs []int64) []int64
	snapshotConsistent func(dst []float64, seqs []int64) ([]int64, bool)
	retire             func()
}

func plainCase(st *Store) *storeCase {
	return &storeCase{st: st, publishInit: st.PublishInit, snapshot: st.Snapshot,
		snapshotConsistent: st.SnapshotConsistent, retire: st.Retire}
}

// frontCase serves st's snapshots from a ReadFront folding from it, built
// once PublishInit has run: each call folds synchronously and copies the
// front, so the front must be untorn, agree with the seqs it reports, and be
// consistent once publishers quiesce. The quiet leash parks the background
// refresher, so every fold runs on the caller's goroutine.
// SnapshotConsistent reports whether the fold installed a fresh one; retire
// closes the front first, so no fold holds a chain when the gauges are read.
func frontCase(st *Store) *storeCase {
	var rf *ReadFront
	copyFront := func(dst []float64, seqs []int64) []int64 {
		s := rf.acquire()
		defer s.release()
		copy(dst, s.theta)
		return append(seqs[:0], s.seqs...)
	}
	return &storeCase{
		st: st,
		publishInit: func(theta []float64) {
			st.PublishInit(theta)
			rf = NewReadFront(st, quietLeash)
		},
		snapshot: func(dst []float64, seqs []int64) []int64 {
			rf.refreshNow()
			return copyFront(dst, seqs)
		},
		snapshotConsistent: func(dst []float64, _ []int64) ([]int64, bool) {
			ok := rf.refreshNow()
			return copyFront(dst, nil), ok
		},
		retire: func() { rf.Close(); st.Retire() },
	}
}

// publishChain runs one LAU-SPC publish round over every chain of st with a
// persistence bound of tp, bumping marker cells so readers can detect torn
// or recycled state. Returns the number of successful publishes.
func publishChain(st *Store, worker, tp int) int64 {
	var published int64
	C := st.Chains()
	for k := 0; k < C; k++ {
		c := (worker + k) % C
		nv := st.NewChainVec(c)
		tries := 0
		for {
			cur := st.ChainLatest(c)
			nv.CopyFrom(cur)
			cur.StopReading()
			nv.T++
			// Marker invariant: every cell of a chain's published
			// buffer equals its sequence number.
			for i := range nv.Theta {
				nv.Theta[i] = float64(nv.T)
			}
			if st.ChainTryPublish(c, cur, nv) {
				published++
				break
			}
			if tries++; tries > tp {
				nv.Release()
				break
			}
		}
	}
	return published
}

// TestStoreConformanceBasics checks the structural contract: dimension,
// chain partition, init publish, retire draining the gauges.
func TestStoreConformanceBasics(t *testing.T) {
	const dim = 64
	for _, tc := range storeCases(dim) {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.build()
			st := sc.st
			if st.Dim() != dim {
				t.Fatalf("Dim = %d, want %d", st.Dim(), dim)
			}
			C := st.Chains()
			if C < 1 {
				t.Fatalf("Chains = %d", C)
			}
			// Chain ranges must partition [0, dim) contiguously.
			pos := 0
			for c := 0; c < C; c++ {
				r := st.ChainRange(c)
				if r.Lo != pos || r.Hi <= r.Lo {
					t.Fatalf("chain %d range [%d,%d) does not continue partition at %d", c, r.Lo, r.Hi, pos)
				}
				pos = r.Hi
			}
			if pos != dim {
				t.Fatalf("chain partition covers [0,%d), want [0,%d)", pos, dim)
			}

			init := make([]float64, dim)
			for i := range init {
				init[i] = float64(i)
			}
			sc.publishInit(init)
			dst := make([]float64, dim)
			seqs := sc.snapshot(dst, nil)
			if len(seqs) != C {
				t.Fatalf("Snapshot returned %d seqs, want %d", len(seqs), C)
			}
			for i, v := range dst {
				if v != float64(i) {
					t.Fatalf("snapshot[%d] = %v, want %v", i, v, float64(i))
				}
			}
			if live := st.Live(); live != int64(C) {
				t.Fatalf("Live = %d after init, want %d (one published vector per chain)", live, C)
			}
			sc.retire()
			if live := st.Live(); live != 0 {
				t.Fatalf("Live = %d after Retire, want 0", live)
			}
		})
	}
}

// TestStoreConformanceLeaseLifecycle checks the Lease contract: zero-copy
// aliasing of the published buffers, seq recording, re-acquisition without
// allocation, and recycling protection until release.
func TestStoreConformanceLeaseLifecycle(t *testing.T) {
	const dim = 48
	for _, tc := range storeCases(dim) {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.build()
			st := sc.st
			st.SetPoison(true)
			sc.publishInit(make([]float64, dim))

			var l Lease
			view := l.Acquire(st)
			if view.Len() != dim {
				t.Fatalf("view length %d, want %d", view.Len(), dim)
			}
			if l.Chains() != st.Chains() {
				t.Fatalf("lease chains %d, want %d", l.Chains(), st.Chains())
			}
			// Zero-copy: the view must alias the published buffers.
			v0 := st.ChainPeek(0)
			if s, ok := view.Slice(0, 1); !ok || &s[0] != &v0.Theta[0] {
				t.Fatal("leased view does not alias the published buffer")
			}

			// Publish over every chain while the lease is held: the leased
			// buffers must survive (not be recycled/poisoned).
			publishChain(st, 0, 1<<30)
			for i := 0; i < dim; i++ {
				if math.IsNaN(view.At(i)) {
					t.Fatalf("leased buffer recycled at %d while lease held", i)
				}
			}
			consistent := l.Release()
			if st.Chains() == 1 {
				// One immutable vector: always a global state.
				if !consistent {
					t.Fatal("single-chain lease classified mixed")
				}
			} else if consistent {
				t.Fatal("lease classified consistent although every chain republished during it")
			}
		})
	}
}

// TestStoreConformanceLeaseQuietWindowConsistent: with no concurrent
// publish, every lease must validate as a consistent global state.
func TestStoreConformanceLeaseQuietWindowConsistent(t *testing.T) {
	const dim = 48
	for _, tc := range storeCases(dim) {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.build()
			st := sc.st
			sc.publishInit(make([]float64, dim))
			var l Lease
			for i := 0; i < 3; i++ {
				l.Acquire(st)
				if !l.Release() {
					t.Fatalf("quiet-window lease %d classified mixed", i)
				}
			}
			sc.retire()
		})
	}
}

// The single-chain lease classification claim from the lifecycle test,
// stated directly: a republished single chain is still a consistent read.
func TestSingleChainLeaseAlwaysConsistent(t *testing.T) {
	st := NewStore(8, 1)
	st.PublishInit(make([]float64, 8))
	var l Lease
	l.Acquire(st)
	publishChain(st, 0, 1<<30)
	if !l.Release() {
		t.Fatal("single-chain lease classified mixed: one immutable vector is always consistent")
	}
	st.Retire()
}

// TestStoreConformanceSnapshotNeverTorn hammers each store with concurrent
// publishers while snapshotting: every chain segment of every snapshot must
// be internally uniform (the marker invariant), and consistent snapshots
// must additionally agree with the returned sequence numbers across chains.
func TestStoreConformanceSnapshotNeverTorn(t *testing.T) {
	const dim = 64
	for _, tc := range storeCases(dim) {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.build()
			st := sc.st
			st.SetPoison(true)
			sc.publishInit(make([]float64, dim))
			iters := stressIters(t, 1500)

			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						publishChain(st, w, 1)
					}
				}(w)
			}
			quiesced := make(chan struct{})
			go func() { wg.Wait(); close(quiesced) }()

			dst := make([]float64, dim)
			var seqs []int64
			check := func(i int) {
				t.Helper()
				seqs = sc.snapshot(dst, seqs)
				for c := 0; c < st.Chains(); c++ {
					r := st.ChainRange(c)
					want := dst[r.Lo]
					if want != float64(seqs[c]) {
						t.Fatalf("iter %d chain %d: segment value %v does not match seq %d", i, c, want, seqs[c])
					}
					for j := r.Lo; j < r.Hi; j++ {
						if dst[j] != want {
							t.Fatalf("iter %d chain %d: torn segment (%v at %d, %v at %d)",
								i, c, want, r.Lo, dst[j], j)
						}
					}
				}
			}
			// Snapshot continuously while the publishers run, then once
			// more after quiesce.
			running := true
			for i := 0; running; i++ {
				select {
				case <-quiesced:
					running = false
				default:
				}
				check(i)
			}

			// After quiesce, SnapshotConsistent must validate and agree
			// with a follow-up snapshot.
			if _, ok := sc.snapshotConsistent(dst, nil); !ok {
				t.Fatal("SnapshotConsistent failed with no concurrent publishers")
			}
			sc.retire()
			if got := st.Live(); got != 0 {
				t.Fatalf("Live = %d after Retire, want 0", got)
			}
			if st.Reuses() == 0 {
				t.Fatal("store never reused a buffer under publish stress")
			}
		})
	}
}

// TestStoreConformancePublishRecycleRace is the publish/recycle race stress
// over the interface: concurrent leased readers and LAU-SPC publishers, with
// poisoning on, must never observe a recycled buffer through a held lease,
// and the pools must drain after retirement.
func TestStoreConformancePublishRecycleRace(t *testing.T) {
	const dim = 64
	const workers = 8
	for _, tc := range storeCases(dim) {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.build()
			st := sc.st
			st.SetPoison(true)
			init := make([]float64, dim)
			sc.publishInit(init)
			iters := stressIters(t, 2000)

			var published atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var l Lease
					for i := 0; i < iters; i++ {
						view := l.Acquire(st)
						for j := 0; j < dim; j += 7 {
							if math.IsNaN(view.At(j)) {
								t.Errorf("worker %d: leased read hit a recycled buffer", w)
								l.Release()
								return
							}
						}
						l.Release()
						published.Add(publishChain(st, w, 1))
					}
				}(w)
			}
			wg.Wait()
			if published.Load() == 0 {
				t.Fatal("no successful publishes")
			}
			if got, want := st.Live(), int64(st.Chains()); got != want {
				t.Fatalf("Live = %d after quiesce, want %d", got, want)
			}
			sc.retire()
			if got := st.Live(); got != 0 {
				t.Fatalf("Live = %d after Retire, want 0", got)
			}
		})
	}
}

// A lease acquired before Retire and released after it — the serving tier
// racing the autotuner's epoch swap or end-of-run cleanup. The leased
// buffers must stay valid for the whole window, the release must NOT be
// classified consistent (the epoch is dead), and the buffers must be freed
// rather than recycled into the dead pools. Acquiring after Retire must
// panic instead of livelocking in the latest-pointer loop.
func TestStoreConformanceLeaseAcrossRetire(t *testing.T) {
	const dim = 64
	for _, tc := range storeCases(dim) {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.build()
			st := sc.st
			st.SetPoison(true)
			theta := make([]float64, dim)
			for i := range theta {
				theta[i] = float64(i)
			}
			sc.publishInit(theta)

			var l Lease
			view := l.Acquire(st)
			sc.retire()
			if !st.Retired() {
				t.Fatal("Retired() = false after Retire")
			}
			// The held lease protects every leased buffer: values intact,
			// no poison.
			for i := 0; i < dim; i++ {
				if got := view.At(i); got != float64(i) {
					t.Fatalf("leased value [%d] = %v after Retire, want %v", i, got, float64(i))
				}
			}
			if l.Release() {
				t.Fatal("lease spanning Retire classified consistent")
			}
			if !l.RetiredStore() {
				t.Fatal("RetiredStore() = false for a lease released after Retire")
			}
			// Releasing the last lease drains the gauges even though the
			// pools are dead: buffers are dropped, not parked on a free
			// list nothing will check out of again.
			if got := st.Live(); got != 0 {
				t.Fatalf("Live = %d after final release on retired store, want 0", got)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("Acquire on a retired store did not panic")
					}
				}()
				l.Acquire(st)
			}()
		})
	}
}

// Pool.Retire drains the free set and drops later returns instead of
// parking them.
func TestPoolRetireDropsBuffers(t *testing.T) {
	p := NewPool(8)
	a := New(p)
	b := New(p)
	a.Release()
	if n := p.parked(); n != 1 {
		t.Fatalf("free set has %d vectors before Retire, want 1", n)
	}
	p.Retire()
	if n := p.parked(); n != 0 {
		t.Fatalf("free set has %d vectors after Retire, want 0", n)
	}
	b.Release()
	if n := p.parked(); n != 0 {
		t.Fatalf("free set has %d vectors after post-Retire put, want 0", n)
	}
	if got := p.Live(); got != 0 {
		t.Fatalf("Live = %d after both buffers returned, want 0", got)
	}
}
