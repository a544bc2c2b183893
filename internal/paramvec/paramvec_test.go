package paramvec

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"leashedsgd/internal/rng"
	"leashedsgd/internal/tensor"
)

func TestPoolCheckoutAccounting(t *testing.T) {
	p := NewPool(8)
	v1 := New(p)
	v2 := New(p)
	if p.Live() != 2 || p.Allocs() != 2 || p.Peak() != 2 {
		t.Fatalf("live=%d allocs=%d peak=%d", p.Live(), p.Allocs(), p.Peak())
	}
	v1.Release()
	if p.Live() != 1 {
		t.Fatalf("live after release = %d", p.Live())
	}
	v3 := New(p) // must reuse v1's buffer
	if p.Allocs() != 2 || p.Reuses() != 1 || p.Live() != 2 {
		t.Fatalf("allocs=%d reuses=%d live=%d", p.Allocs(), p.Reuses(), p.Live())
	}
	_ = v2
	_ = v3
}

func TestPoolDimValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool(0) did not panic")
		}
	}()
	NewPool(0)
}

func TestRandInit(t *testing.T) {
	p := NewPool(1000)
	v := New(p)
	v.RandInit(rng.New(1), 0.1)
	var sum, sumSq float64
	for _, x := range v.Theta {
		sum += x
		sumSq += x * x
	}
	mean := sum / 1000
	std := math.Sqrt(sumSq/1000 - mean*mean)
	if math.Abs(mean) > 0.02 {
		t.Errorf("init mean = %v", mean)
	}
	if math.Abs(std-0.1) > 0.02 {
		t.Errorf("init std = %v, want ~0.1", std)
	}
}

func TestUpdateAppliesStepAndAdvancesT(t *testing.T) {
	p := NewPool(3)
	v := New(p)
	copy(v.Theta, []float64{1, 2, 3})
	v.Update([]float64{1, 1, 1}, 0.5)
	if v.T != 1 {
		t.Fatalf("T = %d, want 1", v.T)
	}
	want := []float64{0.5, 1.5, 2.5}
	for i := range want {
		if v.Theta[i] != want[i] {
			t.Fatalf("Theta = %v, want %v", v.Theta, want)
		}
	}
}

// TestUpdateFromEqualsCopyThenUpdate: the fused pass is CopyFrom followed by
// Update, value for value and in T, and allocates nothing.
func TestUpdateFromEqualsCopyThenUpdate(t *testing.T) {
	const dim = 2*updateBlock + 7
	p := NewPool(dim)
	src, fused, two := New(p), New(p), New(p)
	src.RandInit(rng.New(1), 0.1)
	src.T = 41
	delta := New(p)
	delta.RandInit(rng.New(2), 1)
	if !fused.UpdateFrom(src, delta.Theta, 0.05) {
		t.Fatal("UpdateFrom from a live source reported a lost attempt")
	}
	two.CopyFrom(src)
	two.Update(delta.Theta, 0.05)
	if fused.T != 42 || two.T != 42 {
		t.Fatalf("T = %d (fused), %d (copy+update), want 42", fused.T, two.T)
	}
	for i := range two.Theta {
		if fused.Theta[i] != two.Theta[i] {
			t.Fatalf("Theta[%d] = %v fused, %v copy+update", i, fused.Theta[i], two.Theta[i])
		}
	}
	if a := testing.AllocsPerRun(20, func() { fused.UpdateFrom(src, delta.Theta, 0.05) }); a != 0 {
		t.Fatalf("UpdateFrom allocates %v per pass, want 0", a)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("UpdateFrom with a short delta did not panic")
		}
	}()
	fused.UpdateFrom(src, delta.Theta[:dim-1], 0.05)
}

// TestUpdateFromStopsOnStaleHead is the early exit, deterministically: the
// head an attempt folds onto is replaced, and the attempt must stop at its
// next block boundary — one block written, the rest of the private buffer
// untouched, nothing published — leaving the vector reusable for a retry
// that publishes newHead − η·g exactly.
func TestUpdateFromStopsOnStaleHead(t *testing.T) {
	const dim = 3*updateBlock + 5
	const eta = 0.25
	st := NewStore(dim, 1)
	theta0 := make([]float64, dim)
	g := make([]float64, dim)
	r := rng.New(7)
	for i := range g {
		theta0[i], g[i] = r.NormFloat64(), r.NormFloat64()
	}
	st.PublishInit(theta0)

	cur := st.ChainLatest(0)
	// Another worker wins the head this attempt was started on.
	winner := st.NewChainVec(0)
	if !winner.UpdateFrom(cur, g, 1) || !st.ChainTryPublish(0, cur, winner) {
		t.Fatal("uncontended publish failed")
	}
	if !cur.Stale() {
		t.Fatal("replaced head not marked stale")
	}

	nv := st.NewChainVec(0)
	tensor.Fill(nv.Theta, math.NaN())
	nv.T = -1
	if nv.UpdateFrom(cur, g, eta) {
		t.Fatal("attempt on a replaced head ran to completion")
	}
	for i, v := range nv.Theta {
		if (i >= updateBlock) != math.IsNaN(v) {
			t.Fatalf("Theta[%d] = %v: the pass must stop after exactly one block", i, v)
		}
	}
	if nv.T != -1 || nv.Deleted() {
		t.Fatalf("abandoned vector: T = %d, deleted = %v; must stay private and reusable", nv.T, nv.Deleted())
	}
	if st.ChainPeek(0) != winner {
		t.Fatal("an abandoned attempt changed the published head")
	}
	cur.StopReading()

	// The retry is the same fused pass from the new head.
	cur = st.ChainLatest(0)
	if cur != winner {
		t.Fatal("retry did not observe the winner's vector")
	}
	want := make([]float64, dim)
	tensor.AxpyTo(want, winner.Theta, -eta, g)
	if !nv.UpdateFrom(cur, g, eta) || !st.ChainTryPublish(0, cur, nv) {
		t.Fatal("retry from the new head failed")
	}
	cur.StopReading()
	if st.ChainPeek(0) != nv || nv.T != 2 {
		t.Fatalf("head = %p (T=%d), want the retried vector at T=2", st.ChainPeek(0), nv.T)
	}
	for i := range want {
		if nv.Theta[i] != want[i] {
			t.Fatalf("retried Theta[%d] = %v, want newHead − η·g = %v", i, nv.Theta[i], want[i])
		}
	}
}

// TestUpdateFromShortVectorNeverChecks: a vector of at most one block runs
// its whole pass without looking at the stale flag (the CAS is the check),
// one element more and it looks exactly once.
func TestUpdateFromShortVectorNeverChecks(t *testing.T) {
	for _, tc := range []struct {
		dim      int
		complete bool
	}{{1, true}, {updateBlock, true}, {updateBlock + 1, false}} {
		p := NewPool(tc.dim)
		src, nv := New(p), New(p)
		tensor.Fill(src.Theta, 1)
		src.StartReading()
		src.MarkStale()
		if got := nv.UpdateFrom(src, make([]float64, tc.dim), 1); got != tc.complete {
			t.Errorf("dim %d on a stale source: complete = %v, want %v", tc.dim, got, tc.complete)
		}
	}
}

func TestCopyFrom(t *testing.T) {
	p := NewPool(2)
	a, b := New(p), New(p)
	copy(a.Theta, []float64{9, 8})
	a.T = 42
	b.CopyFrom(a)
	if b.T != 42 || b.Theta[0] != 9 || b.Theta[1] != 8 {
		t.Fatalf("CopyFrom: T=%d Theta=%v", b.T, b.Theta)
	}
}

func TestSafeDeleteConditions(t *testing.T) {
	p := NewPool(4)
	v := New(p)
	// Not stale: must refuse.
	if v.SafeDelete() {
		t.Fatal("deleted a non-stale vector")
	}
	// Stale but has a reader: must refuse.
	v.StartReading()
	v.MarkStale()
	if v.SafeDelete() {
		t.Fatal("deleted a vector with an active reader")
	}
	// Reader leaves: StopReading reclaims.
	v.StopReading()
	if !v.Deleted() {
		t.Fatal("StopReading on stale unread vector did not reclaim")
	}
	if p.Live() != 0 {
		t.Fatalf("live = %d after reclaim", p.Live())
	}
}

func TestSafeDeleteIdempotent(t *testing.T) {
	p := NewPool(4)
	v := New(p)
	v.MarkStale()
	if !v.SafeDelete() {
		t.Fatal("first SafeDelete failed")
	}
	if v.SafeDelete() {
		t.Fatal("second SafeDelete claimed to reclaim again")
	}
	if p.Live() != 0 {
		t.Fatalf("double reclaim corrupted gauge: %d", p.Live())
	}
}

func TestReleaseIdempotent(t *testing.T) {
	p := NewPool(4)
	v := New(p)
	v.Release()
	v.Release()
	if p.Live() != 0 {
		t.Fatalf("live = %d", p.Live())
	}
}

func TestSharedPublishLatest(t *testing.T) {
	p := NewPool(2)
	var s Shared
	v0 := New(p)
	v0.T = 0
	s.Publish(v0)
	got := s.Latest()
	if got != v0 || got.Readers() != 1 {
		t.Fatalf("Latest = %p readers=%d", got, got.Readers())
	}
	got.StopReading()
	if v0.Readers() != 0 {
		t.Fatalf("readers = %d", v0.Readers())
	}
}

func TestTryPublishReplacesAndMarksStale(t *testing.T) {
	p := NewPool(2)
	var s Shared
	v0, v1 := New(p), New(p)
	s.Publish(v0)
	if !s.TryPublish(v0, v1) {
		t.Fatal("TryPublish failed with correct expected pointer")
	}
	if !v0.Stale() || !v0.Deleted() {
		t.Fatal("replaced vector not stale+reclaimed")
	}
	if s.Peek() != v1 {
		t.Fatal("published pointer wrong")
	}
	// Second publish with outdated expected must fail.
	v2 := New(p)
	if s.TryPublish(v0, v2) {
		t.Fatal("TryPublish succeeded with stale expected pointer")
	}
}

func TestLatestSkipsStale(t *testing.T) {
	p := NewPool(2)
	var s Shared
	v0, v1 := New(p), New(p)
	s.Publish(v0)
	// Hold a read on v0 so it is not reclaimed, then replace it.
	v0.StartReading()
	if !s.TryPublish(v0, v1) {
		t.Fatal("publish failed")
	}
	// v0 is stale but alive; Latest must return v1.
	got := s.Latest()
	if got != v1 {
		t.Fatalf("Latest returned stale vector")
	}
	got.StopReading()
	v0.StopReading() // releases the last read; v0 reclaims now
	if !v0.Deleted() {
		t.Fatal("v0 not reclaimed after last reader left")
	}
}

// TestConcurrentPublishStress runs the full Leashed read/publish/recycle
// protocol from many goroutines with buffer poisoning enabled: any
// use-after-reclaim shows up as a NaN read inside a protected window.
func TestConcurrentPublishStress(t *testing.T) {
	const dim = 64
	const workers = 8
	const iters = 2000
	p := NewPool(dim)
	p.SetPoison(true)
	var s Shared
	v0 := New(p)
	for i := range v0.Theta {
		v0.Theta[i] = 1
	}
	s.Publish(v0)

	var published atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Read phase: protected window must never expose NaN.
				v := s.Latest()
				if math.IsNaN(v.Theta[0]) || math.IsNaN(v.Theta[dim-1]) {
					t.Errorf("worker %d read poisoned memory in protected window", w)
					v.StopReading()
					return
				}
				readT := v.T
				v.StopReading()
				// Publish phase: LAU-SPC with Tp = 2.
				nv := New(p)
				tries := 0
				for {
					latest := s.Latest()
					nv.CopyFrom(latest)
					latest.StopReading()
					nv.T++
					nv.Theta[0] = float64(nv.T)
					if s.TryPublish(latest, nv) {
						published.Add(1)
						break
					}
					tries++
					if tries > 2 {
						nv.Release()
						break
					}
				}
				_ = readT
			}
		}(w)
	}
	wg.Wait()
	if published.Load() == 0 {
		t.Fatal("no successful publishes")
	}
	// Quiesce: the published vector plus nothing else should be live.
	runtime.Gosched()
	if p.Live() > int64(workers)+1 {
		t.Fatalf("%d buffers live after quiesce; recycling broken", p.Live())
	}
	if p.Reuses() == 0 {
		t.Fatal("free list never reused a buffer")
	}
}

// TestLemma2Bound checks the paper's Lemma 2 memory bound in the worst-case
// access pattern: with m workers each holding at most one read registration
// and one private candidate, live buffers never exceed 3m (+1 for the
// initial vector, which the paper's "3m" counts via the published slot).
func TestLemma2Bound(t *testing.T) {
	const dim = 16
	const workers = 6
	const iters = 3000
	p := NewPool(dim)
	var s Shared
	v0 := New(p)
	s.Publish(v0)

	var maxLive atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// localGrad models the worker's local_grad buffer, held for
			// the whole run (counts toward the 3m bound).
			localGrad := New(p)
			defer localGrad.Release()
			for i := 0; i < iters; i++ {
				v := s.Latest() // gradient-read window
				_ = v.T
				v.StopReading()
				nv := New(p)
				tries := 0
				for {
					latest := s.Latest()
					nv.CopyFrom(latest)
					latest.StopReading()
					nv.T++
					if s.TryPublish(latest, nv) {
						break
					}
					if tries++; tries > 1 {
						nv.Release()
						break
					}
				}
				if live := p.Live(); live > maxLive.Load() {
					maxLive.Store(live)
				}
			}
		}()
	}
	wg.Wait()
	bound := int64(3*workers + 1)
	if got := maxLive.Load(); got > bound {
		t.Fatalf("peak live buffers %d exceeds Lemma 2 bound %d", got, bound)
	}
	if p.Peak() > bound {
		t.Fatalf("pool peak %d exceeds Lemma 2 bound %d", p.Peak(), bound)
	}
}

// TestLatestMonotonic verifies the paper's P3 claim: a read preceded by
// another read never returns an older published vector.
func TestLatestMonotonic(t *testing.T) {
	const workers = 4
	const iters = 2000
	p := NewPool(4)
	var s Shared
	v0 := New(p)
	s.Publish(v0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Publisher goroutine advances the sequence.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			nv := New(p)
			for {
				latest := s.Latest()
				nv.CopyFrom(latest)
				latest.StopReading()
				nv.T++
				if s.TryPublish(latest, nv) {
					break
				}
			}
		}
		close(stop)
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastT int64 = -1
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := s.Latest()
				tt := v.T
				v.StopReading()
				if tt < lastT {
					t.Errorf("monotonic reads violated: saw T=%d after T=%d", tt, lastT)
					return
				}
				lastT = tt
			}
		}()
	}
	wg.Wait()
}

func TestPeekDoesNotProtect(t *testing.T) {
	p := NewPool(2)
	var s Shared
	v := New(p)
	s.Publish(v)
	if s.Peek() != v {
		t.Fatal("Peek mismatch")
	}
	if v.Readers() != 0 {
		t.Fatal("Peek must not register a reader")
	}
}

func BenchmarkLatestStopReading(b *testing.B) {
	p := NewPool(128)
	var s Shared
	s.Publish(New(p))
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			v := s.Latest()
			v.StopReading()
		}
	})
}

func BenchmarkPublishCycle(b *testing.B) {
	p := NewPool(128)
	var s Shared
	s.Publish(New(p))
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			nv := New(p)
			tries := 0
			for {
				latest := s.Latest()
				nv.CopyFrom(latest)
				latest.StopReading()
				nv.T++
				if s.TryPublish(latest, nv) {
					break
				}
				if tries++; tries > 3 {
					nv.Release()
					break
				}
			}
		}
	})
}
