package paramvec

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestReadFrontServesPublishedState: after publishes land in the wrapped
// store, a refreshed front must serve exactly what a consistent snapshot of
// the store sees — content, consistency label, and snapshot marker.
func TestReadFrontServesPublishedState(t *testing.T) {
	const dim = 48
	st := NewStore(dim, 4)
	init := make([]float64, dim)
	for i := range init {
		init[i] = float64(i)
	}
	st.PublishInit(init)
	rf := NewReadFront(st, quietLeash)
	defer func() { rf.Close(); st.Retire() }()

	for round := 0; round < 5; round++ {
		publishChain(st, round, 1<<30)
		if !rf.refreshNow() {
			t.Fatalf("round %d: refreshNow failed with no concurrent publishers", round)
		}
		want := make([]float64, dim)
		if _, ok := st.SnapshotConsistent(want, 4); !ok {
			t.Fatalf("round %d: inner SnapshotConsistent failed", round)
		}
		meta := rf.ReadParams(nil, nil, func(v View) {
			for i := 0; i < dim; i++ {
				if v.At(i) != want[i] {
					t.Fatalf("round %d: front[%d] = %v, want %v", round, i, v.At(i), want[i])
				}
			}
		})
		if !meta.Consistent || !meta.Snapshot || !meta.Copied {
			t.Fatalf("round %d: meta = %+v, want consistent snapshot", round, meta)
		}
		if meta.StalenessUpdates != 0 {
			t.Fatalf("round %d: StalenessUpdates = %d right after refresh, want 0", round, meta.StalenessUpdates)
		}
	}
}

// TestReadFrontSparseFoldMatchesDense: a refresh after touching only a
// subset of chains must take the sparse incremental path (copy only the
// advanced chains) and still land bit-identical to a dense consistent
// snapshot of the store.
func TestReadFrontSparseFoldMatchesDense(t *testing.T) {
	const dim = 64
	st := NewStore(dim, 8)
	st.PublishInit(make([]float64, dim))
	rf := NewReadFront(st, quietLeash)
	defer func() { rf.Close(); st.Retire() }()
	if !rf.refreshNow() {
		t.Fatal("initial refresh failed")
	}
	before := rf.Stats()

	// Touch chains 2 and 5 only.
	for _, c := range []int{2, 5} {
		nv := st.NewChainVec(c)
		cur := st.ChainLatest(c)
		nv.CopyFrom(cur)
		nv.T = cur.T + 1
		for i := range nv.Theta {
			nv.Theta[i] = float64(nv.T)
		}
		if !st.ChainTryPublish(c, cur, nv) {
			t.Fatalf("quiet publish on chain %d failed", c)
		}
		cur.StopReading()
	}
	if !rf.refreshNow() {
		t.Fatal("sparse refresh failed")
	}
	after := rf.Stats()
	if after.SparseFolds <= before.SparseFolds {
		t.Fatalf("refresh over a warm buffer took the dense path: %+v -> %+v", before, after)
	}
	if copied := after.ChainsCopied - before.ChainsCopied; copied != 2 {
		t.Fatalf("sparse fold copied %d chains, want exactly the 2 touched", copied)
	}
	want := make([]float64, dim)
	if _, ok := st.SnapshotConsistent(want, 4); !ok {
		t.Fatal("inner SnapshotConsistent failed")
	}
	rf.ReadParams(nil, nil, func(v View) {
		for i := 0; i < dim; i++ {
			if v.At(i) != want[i] {
				t.Fatalf("front[%d] = %v, want %v", i, v.At(i), want[i])
			}
		}
	})
}

// TestReadFrontLeashTriggersRefresh: with an update-count leash and a parked
// poller, a read that would be served over-leash must take the synchronous
// slow path, self-heal, and report staleness within the leash.
func TestReadFrontLeashTriggersRefresh(t *testing.T) {
	const dim = 32
	st := NewStore(dim, 4)
	st.PublishInit(make([]float64, dim))
	rf := NewReadFront(st, ReadLeash{MaxUpdates: 8, MaxAge: time.Hour})
	defer func() { rf.Close(); st.Retire() }()
	rf.refreshNow()

	// 20 publish rounds over 4 chains = 80 updates ≫ the 8-update leash.
	for i := 0; i < 20; i++ {
		publishChain(st, i, 1<<30)
	}
	before := rf.Stats()
	meta := rf.ReadParams(nil, nil, func(View) {})
	after := rf.Stats()
	if after.SlowReads <= before.SlowReads {
		t.Fatalf("over-leash read did not take the slow path: %+v -> %+v", before, after)
	}
	if meta.StalenessUpdates > rf.Leash().MaxUpdates {
		t.Fatalf("served staleness %d updates exceeds the %d-update leash after slow-path refresh",
			meta.StalenessUpdates, rf.Leash().MaxUpdates)
	}
	if !meta.Consistent || !meta.Snapshot {
		t.Fatalf("slow-path meta = %+v", meta)
	}
}

// TestReadFrontFreeze: freezing publishes the immutable final parameters,
// every later read is Final with zero staleness, and the refresher is shut
// down.
func TestReadFrontFreeze(t *testing.T) {
	const dim = 24
	st := NewStore(dim, 4)
	st.PublishInit(make([]float64, dim))
	rf := NewReadFront(st, ReadLeash{MaxAge: time.Millisecond})
	final := make([]float64, dim)
	for i := range final {
		final[i] = 100 + float64(i)
	}
	rf.Freeze(final)
	st.Retire() // the frozen front must not reach back into the store

	for i := 0; i < 3; i++ {
		meta := rf.ReadParams(nil, nil, func(v View) {
			for j := 0; j < dim; j++ {
				if v.At(j) != final[j] {
					t.Fatalf("frozen front[%d] = %v, want %v", j, v.At(j), final[j])
				}
			}
		})
		if !meta.Final || !meta.Consistent {
			t.Fatalf("read %d of frozen front: meta = %+v, want Final+Consistent", i, meta)
		}
		if meta.StalenessUpdates != 0 || meta.StalenessAge != 0 {
			t.Fatalf("frozen front reported staleness (%d updates, %v)", meta.StalenessUpdates, meta.StalenessAge)
		}
	}
	rf.Close() // idempotent after Freeze's internal Close
}

// TestReadFrontReadersWritersStress is the readers≫writers race stress the
// tentpole is built for: 16 snapshot readers against 2 LAU-SPC publishers
// and a concurrent store swap (the re-shard epoch flip), under poisoning.
// Every read must be labeled consistent, and a held snapshot must be
// immutable for as long as it is held — the grace period must prevent the
// refresher from recycling a flipped-out buffer under a reader.
func TestReadFrontReadersWritersStress(t *testing.T) {
	const (
		dim     = 64
		readers = 16
		writers = 2
	)
	iters := stressIters(t, 4000)

	a := NewStore(dim, 4)
	a.SetPoison(true)
	a.PublishInit(make([]float64, dim))
	bst := NewStore(dim, 8)
	bst.SetPoison(true)
	bst.PublishInit(make([]float64, dim))

	var cur atomic.Pointer[Store]
	cur.Store(a)
	rf := NewReadFrontPinned(dim, func() (*Store, func()) { return cur.Load(), func() {} },
		ReadLeash{MaxUpdates: 64, MaxAge: 500 * time.Microsecond, Poll: 100 * time.Microsecond})
	rf.refreshNow()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters && !stop.Load(); i++ {
				publishChain(cur.Load(), w, 1)
			}
		}(w)
	}
	// Swap the live store mid-stress, like the autotuner's epoch flip.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(2 * time.Millisecond)
		cur.Store(bst)
	}()

	var reads atomic.Int64
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for i := 0; i < iters; i++ {
				meta := rf.ReadParams(nil, nil, func(v View) {
					// The marker invariant holds per chain in both stores'
					// geometries (chain sizes 16 and 8 both divide into
					// uniform segments of 8): any flip or recycle under us
					// shows up as a mixed or NaN-poisoned segment.
					for lo := 0; lo < dim; lo += 8 {
						first := v.At(lo)
						for j := lo; j < lo+8; j++ {
							if got := v.At(j); got != first {
								t.Errorf("reader %d iter %d: torn/recycled snapshot (%v at %d, %v at %d)",
									r, i, first, lo, got, j)
								return
							}
						}
					}
				})
				if !meta.Consistent || !meta.Snapshot {
					t.Errorf("reader %d iter %d: inconsistent read %+v", r, i, meta)
					return
				}
				if meta.StalenessUpdates < 0 || meta.StalenessAge < 0 {
					t.Errorf("reader %d iter %d: negative staleness %+v", r, i, meta)
					return
				}
				reads.Add(1)
			}
		}(r)
	}
	rwg.Wait()
	stop.Store(true)
	wg.Wait()
	rf.Close()
	a.Retire()
	bst.Retire()

	if got, want := reads.Load(), int64(readers)*int64(iters); got != want {
		t.Fatalf("%d consistent reads, want %d", got, want)
	}
	st := rf.Stats()
	if st.Flips == 0 {
		t.Fatal("no front flips under stress; the refresher never ran")
	}
	t.Logf("stress: %d reads, stats %+v", reads.Load(), st)
}

// TestReadFrontSnapshotImmutableWhileHeld pins the grace-period guarantee
// directly: a reader holding the front across many refresh cycles must see
// frozen contents — the buffer it holds must not be reused as a fold target
// until released.
func TestReadFrontSnapshotImmutableWhileHeld(t *testing.T) {
	const dim = 32
	st := NewStore(dim, 4)
	st.PublishInit(make([]float64, dim))
	rf := NewReadFront(st, quietLeash)
	defer func() { rf.Close(); st.Retire() }()
	rf.refreshNow()

	done := make(chan struct{})
	go func() {
		defer close(done)
		rf.ReadParams(nil, nil, func(v View) {
			before := make([]float64, dim)
			for i := range before {
				before[i] = v.At(i)
			}
			// Cycle the double buffer well past its 2 entries while held.
			for round := 0; round < 6; round++ {
				publishChain(st, round, 1<<30)
				if !rf.refreshNow() {
					t.Error("refresh under held reader failed")
					return
				}
			}
			for i := range before {
				if got := v.At(i); got != before[i] {
					t.Errorf("held snapshot mutated at %d: %v -> %v", i, before[i], got)
					return
				}
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("held-reader refresh cycle deadlocked")
	}
	// With the reader released, the ring must be reusable: the next
	// refreshes shouldn't grow allocations without bound.
	s := rf.Stats()
	if s.SnapAllocs > 4 {
		t.Fatalf("refresher allocated %d snapshot buffers for a single held reader, want a bounded ring", s.SnapAllocs)
	}
}
