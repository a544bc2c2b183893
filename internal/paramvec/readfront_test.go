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
		if _, ok := st.SnapshotConsistent(want, nil); !ok {
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

// TestReadFrontSparseFoldMatchesDense: a fold from a warm baseline copies
// only the chains that advanced — the untouched segments of its destination
// are never rewritten — and a front folded into a warm buffer still lands
// bit-identical to a cold consistent snapshot of the store.
func TestReadFrontSparseFoldMatchesDense(t *testing.T) {
	const dim = 64
	st := NewStore(dim, 8)
	st.PublishInit(make([]float64, dim))
	touch := func(chains ...int) {
		for _, c := range chains {
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
	}

	// The routine itself: mark the segments of chains that will not
	// advance; a fold that re-copied them would overwrite the marks.
	dst := make([]float64, dim)
	seqs, _ := st.SnapshotConsistent(dst, nil)
	for c := 0; c < st.Chains(); c++ {
		if r := st.ChainRange(c); c != 2 && c != 5 {
			for i := r.Lo; i < r.Hi; i++ {
				dst[i] = -1
			}
		}
	}
	touch(2, 5)
	seqs, ok := st.SnapshotConsistent(dst, seqs)
	if !ok {
		t.Fatal("warm SnapshotConsistent failed with no concurrent publishers")
	}
	for c := 0; c < st.Chains(); c++ {
		want := -1.0
		if c == 2 || c == 5 {
			want = 1
		}
		if r := st.ChainRange(c); dst[r.Lo] != want || seqs[c] != max(int64(want), 0) {
			t.Fatalf("chain %d: dst %v at seq %d, want %v (only chains 2 and 5 copied)", c, dst[r.Lo], seqs[c], want)
		}
	}

	// The front: two more folds reuse the first, now warm, buffer.
	rf := NewReadFront(st, quietLeash)
	defer func() { rf.Close(); st.Retire() }()
	for _, chains := range [][]int{{1, 2}, {5}} {
		touch(chains...)
		if !rf.refreshNow() {
			t.Fatal("refresh failed with no concurrent publishers")
		}
	}
	if s := rf.Stats(); s.SnapAllocs != 2 {
		t.Fatalf("%d snapshot buffers after three folds, want 2 (the last fold reuses a warm one)", s.SnapAllocs)
	}
	want := make([]float64, dim)
	if _, ok := st.SnapshotConsistent(want, nil); !ok {
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

// TestReadFrontLeashTriggersRefresh: with an age leash and a refresher that
// never polls within the test, a read that finds the front older than the
// leash must take the synchronous slow path, self-heal, and serve the live
// state within the leash.
func TestReadFrontLeashTriggersRefresh(t *testing.T) {
	const dim = 32
	leash := ReadLeash{MaxAge: 20 * time.Millisecond, poll: time.Hour}
	st := NewStore(dim, 4)
	st.PublishInit(make([]float64, dim))
	rf := NewReadFront(st, leash)
	defer func() { rf.Close(); st.Retire() }()

	for i := 0; i < 20; i++ {
		publishChain(st, i, 1<<30)
	}
	time.Sleep(2 * leash.MaxAge)
	want := make([]float64, dim)
	if _, ok := st.SnapshotConsistent(want, nil); !ok {
		t.Fatal("inner SnapshotConsistent failed")
	}
	before := rf.Stats()
	meta := rf.ReadParams(nil, nil, func(v View) {
		for i := 0; i < dim; i++ {
			if v.At(i) != want[i] {
				t.Errorf("slow-path read [%d] = %v, want the live %v", i, v.At(i), want[i])
				return
			}
		}
	})
	after := rf.Stats()
	if after.SlowReads != before.SlowReads+1 {
		t.Fatalf("over-leash read did not take the slow path once: %+v -> %+v", before, after)
	}
	if meta.StalenessAge > leash.MaxAge || meta.StalenessUpdates != 0 {
		t.Fatalf("slow-path read served staleness (%v, %d updates), want within the %v leash and 0 updates",
			meta.StalenessAge, meta.StalenessUpdates, leash.MaxAge)
	}
	if !meta.Consistent || !meta.Snapshot {
		t.Fatalf("slow-path meta = %+v", meta)
	}
}

// TestReadFrontClosedNeverTouchesStore: Close detaches the front from its
// store for good. Reads past the leash find nothing to fold from and serve
// the last snapshot, with no chain-head access, before and after the store
// retires — a fold on a retired store would wait forever for its heads.
func TestReadFrontClosedNeverTouchesStore(t *testing.T) {
	const dim = 32
	leash := ReadLeash{MaxAge: time.Microsecond}
	st := NewStore(dim, 4)
	var heads headCount
	st.probe = &heads
	st.PublishInit(make([]float64, dim))
	rf := NewReadFront(st, leash)
	rf.Close()
	publishChain(st, 0, 1<<30)
	heads.latest.Store(0)
	heads.peek.Store(0)

	read := func(when string) {
		done := make(chan ReadMeta)
		go func() {
			done <- rf.ReadParams(nil, nil, func(v View) {
				for i := 0; i < dim; i++ {
					if v.At(i) != 0 {
						t.Errorf("%s: closed front[%d] = %v, want the snapshot from before Close", when, i, v.At(i))
						return
					}
				}
			})
		}()
		select {
		case meta := <-done:
			if !meta.Consistent || !meta.Snapshot || meta.StalenessAge <= leash.MaxAge {
				t.Fatalf("%s: meta = %+v, want a consistent snapshot older than the leash", when, meta)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: read of a closed front hung", when)
		}
	}
	time.Sleep(2 * leash.MaxAge)
	read("after publish")
	st.Retire()
	read("after Retire")
	if l, p := heads.latest.Load(), heads.peek.Load(); l != 0 || p != 0 {
		t.Fatalf("closed front made %d ChainLatest and %d ChainPeek calls on the store, want 0 and 0", l, p)
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
// front is built for: 16 snapshot readers against 2 LAU-SPC publishers on
// one store, under poisoning, with a refresher polling every 100µs against a
// 500µs leash. Every read must be labeled consistent, and a held snapshot
// must be immutable for as long as it is held — the grace period must
// prevent the refresher from recycling a flipped-out buffer under a reader.
func TestReadFrontReadersWritersStress(t *testing.T) {
	const (
		dim     = 64
		readers = 16
		writers = 2
	)
	iters := stressIters(t, 4000)

	st := NewStore(dim, 8)
	st.SetPoison(true)
	st.PublishInit(make([]float64, dim))
	rf := NewReadFront(st, ReadLeash{MaxAge: 500 * time.Microsecond, poll: 100 * time.Microsecond})

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters && !stop.Load(); i++ {
				publishChain(st, w, 1)
			}
		}(w)
	}

	var reads atomic.Int64
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for i := 0; i < iters; i++ {
				meta := rf.ReadParams(nil, nil, func(v View) {
					// The marker invariant holds per chain (8 cells each):
					// any flip or recycle under us shows up as a mixed or
					// NaN-poisoned segment.
					for lo := 0; lo < dim; lo += 8 {
						first := v.At(lo)
						for j := lo; j < lo+8; j++ {
							if got := v.At(j); got != first || got != got {
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
	st.Retire()

	if got, want := reads.Load(), int64(readers)*int64(iters); got != want {
		t.Fatalf("%d consistent reads, want %d", got, want)
	}
	stats := rf.Stats()
	if stats.Flips < 2 {
		t.Fatal("no front flip after the first fold under stress")
	}
	t.Logf("stress: %d reads, stats %+v", reads.Load(), stats)
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
