package paramvec

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// stressIters scales the stress workloads down under -short (CI runs the
// race detector, which multiplies runtime ~10x).
func stressIters(t *testing.T, full int) int {
	if testing.Short() {
		return full / 10
	}
	return full
}

// TestRaceSharedPublishRecycle hammers the full Shared publish/recycle
// protocol — concurrent Latest, TryPublish, StopReading/SafeDelete — from
// many goroutines. Run under `go test -race` it checks the protocol's
// happens-before edges; the poison check asserts no buffer is recycled while
// a reader holds it; and after quiescing, retiring the chain must drain the
// pool gauge to zero (no leaked and no double-freed buffers).
func TestRaceSharedPublishRecycle(t *testing.T) {
	const dim = 32
	const workers = 8
	iters := stressIters(t, 3000)
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
				// Reader: the protected window must never observe a
				// poisoned (recycled) buffer.
				v := s.Latest()
				if math.IsNaN(v.Theta[0]) || math.IsNaN(v.Theta[dim-1]) {
					t.Errorf("worker %d: buffer recycled while reader held it", w)
					v.StopReading()
					return
				}
				v.StopReading()

				// Writer: LAU-SPC with a small persistence bound, so both
				// the publish and the drop/Release paths are exercised.
				nv := New(p)
				tries := 0
				for {
					cur := s.Latest()
					nv.CopyFrom(cur)
					cur.StopReading()
					nv.T++
					nv.Theta[0] = float64(nv.T)
					nv.Theta[dim-1] = float64(nv.T)
					if s.TryPublish(cur, nv) {
						published.Add(1)
						break
					}
					if tries++; tries > 1 {
						nv.Release()
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if published.Load() == 0 {
		t.Fatal("no successful publishes")
	}
	// Quiesced: only the final published vector is still checked out.
	if got := p.Live(); got != 1 {
		t.Fatalf("pool gauge = %d after quiesce, want 1 (the published vector)", got)
	}
	final := s.Peek()
	final.MarkStale()
	final.SafeDelete()
	if got := p.Live(); got != 0 {
		t.Fatalf("pool gauge = %d after retiring the chain, want 0", got)
	}
}

// TestRaceShardedPublishRecycle is the sharded analogue: workers run
// concurrent per-shard Latest/TryPublish/recycle cycles plus full-vector
// snapshots, and every shard pool must drain to zero after retirement.
func TestRaceShardedPublishRecycle(t *testing.T) {
	const dim = 64
	const shards = 4
	const workers = 8
	iters := stressIters(t, 2000)
	ss := NewSharded(dim, shards)
	ss.SetPoison(true)
	init := make([]float64, dim)
	for i := range init {
		init[i] = 1
	}
	ss.PublishInit(init)

	var published atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]float64, dim)
			var seqs []int64
			for i := 0; i < iters; i++ {
				// Snapshot read across all shards under protection.
				seqs = ss.Snapshot(dst, seqs)
				for j := 0; j < dim; j += dim / 4 {
					if math.IsNaN(dst[j]) {
						t.Errorf("worker %d: snapshot read a recycled shard buffer", w)
						return
					}
				}

				// Publish every shard, rotated start, Tp = 1.
				for k := 0; k < shards; k++ {
					s := (w + k) % shards
					nv := ss.NewChainVec(s)
					tries := 0
					for {
						cur := ss.ChainLatest(s)
						nv.CopyFrom(cur)
						cur.StopReading()
						nv.T++
						nv.Theta[0] = float64(nv.T)
						if ss.ChainTryPublish(s, cur, nv) {
							published.Add(1)
							break
						}
						if tries++; tries > 1 {
							nv.Release()
							break
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if published.Load() == 0 {
		t.Fatal("no successful publishes")
	}
	if got, want := ss.Live(), int64(shards); got != want {
		t.Fatalf("shard pools hold %d buffers after quiesce, want %d (one published per shard)", got, want)
	}
	ss.Retire()
	if got := ss.Live(); got != 0 {
		t.Fatalf("shard pools hold %d buffers after Retire, want 0", got)
	}
	if ss.Reuses() == 0 {
		t.Fatal("shard pools never reused a buffer")
	}
}

// TestRaceDenseBlockedPublish runs the dense publisher's blocked pass
// (UpdateFrom, then the CAS only if the pass completed) from several
// goroutines against poisoned pools, at S = 1 and S = 4 with chains more
// than two blocks long. Every update adds 1 to every cell of its chain, so a
// chain published k times must read k in EVERY cell: a truncated pass that
// got published, a pass built on a recycled head, or a lost update would all
// break that. Checked by concurrent leased readers and at the end, where each
// chain's head T, its cells and the count of successful publishes agree.
func TestRaceDenseBlockedPublish(t *testing.T) {
	const workers = 4
	for _, tc := range []struct {
		name   string
		chains int
	}{{"S1", 1}, {"S4", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			chains := tc.chains
			dim := chains * (2*updateBlock + 17)
			st := NewStore(dim, chains)
			st.SetPoison(true)
			st.PublishInit(make([]float64, dim))
			delta := make([]float64, dim)
			for i := range delta {
				delta[i] = -1
			}
			iters := stressIters(t, 400)
			published := make([]atomic.Int64, chains)
			var abandoned atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var l Lease
					for i := 0; i < iters; i++ {
						view := l.Acquire(st)
						for c := 0; c < chains; c++ {
							r := st.ChainRange(c)
							want := float64(l.Seq(c))
							for _, j := range []int{r.Lo, r.Lo + updateBlock, r.Hi - 1} {
								if got := view.At(j); got != want {
									t.Errorf("worker %d: chain %d at T=%v reads %v in cell %d", w, c, want, got, j)
									l.Release()
									return
								}
							}
						}
						l.Release()
						for k := 0; k < chains; k++ {
							c := (w + k) % chains
							r := st.ChainRange(c)
							nv := st.NewChainVec(c)
							for tries := 0; ; tries++ {
								cur := st.ChainLatest(c)
								ok := nv.UpdateFrom(cur, delta[r.Lo:r.Hi], 1)
								if !ok {
									abandoned.Add(1)
								} else if nv.T != cur.T+1 {
									t.Errorf("built T=%d on head T=%d", nv.T, cur.T)
								}
								ok = ok && st.ChainTryPublish(c, cur, nv)
								cur.StopReading()
								if ok {
									published[c].Add(1)
									break
								}
								if tries >= 1 {
									nv.Release()
									break
								}
							}
						}
					}
				}(w)
			}
			wg.Wait()
			for c := 0; c < chains; c++ {
				head, r := st.ChainPeek(c), st.ChainRange(c)
				n := published[c].Load()
				if n == 0 || head.T != n {
					t.Fatalf("chain %d: head T = %d after %d successful publishes", c, head.T, n)
				}
				for j, v := range head.Theta {
					if v != float64(n) {
						t.Fatalf("chain %d cell %d = %v after %d applied updates", c, r.Lo+j, v, n)
					}
				}
			}
			if got, want := st.Live(), int64(chains); got != want {
				t.Fatalf("Live = %d after quiesce, want %d", got, want)
			}
			t.Logf("attempts abandoned mid-pass: %d", abandoned.Load())
		})
	}
}

// TestRaceSnapshotVsOutsideLeases models the serving tier: lease-holders
// OUTSIDE the publishing worker pool hold zero-copy leases across many
// publishes (a batched inference pass is much longer than a gradient read)
// while publishers run LAU-SPC rounds and a monitor goroutine takes
// Snapshot/SnapshotConsistent. The snapshot quiesce assumptions must survive
// readers it does not know about: every snapshot segment stays internally
// uniform (marker invariant, never torn), consistent snapshots agree with
// their seqs, and leased views never observe poison. Finally the store is
// retired WHILE one lease is still held — the late release must drain the
// gauges to zero and label itself.
func TestRaceSnapshotVsOutsideLeases(t *testing.T) {
	const dim = 64
	for _, tc := range storeCases(dim) {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.build()
			st.SetPoison(true)
			st.PublishInit(make([]float64, dim))
			iters := stressIters(t, 1500)

			var pubWG sync.WaitGroup
			for w := 0; w < 3; w++ {
				pubWG.Add(1)
				go func(w int) {
					defer pubWG.Done()
					for i := 0; i < iters; i++ {
						publishChain(st, w, 1)
					}
				}(w)
			}
			quiesced := make(chan struct{})
			go func() { pubWG.Wait(); close(quiesced) }()

			// Outside lease-holders: hold each lease across a simulated
			// long read (several full-view scans), then validate.
			var leaseWG sync.WaitGroup
			var mixed atomic.Int64
			for r := 0; r < 3; r++ {
				leaseWG.Add(1)
				go func() {
					defer leaseWG.Done()
					var l Lease
					for done := false; !done; {
						select {
						case <-quiesced:
							done = true
						default:
						}
						view := l.Acquire(st)
						for pass := 0; pass < 3; pass++ {
							for c := 0; c < st.Chains(); c++ {
								rng := st.ChainRange(c)
								want := view.At(rng.Lo)
								if math.IsNaN(want) {
									t.Errorf("leased read hit a recycled buffer")
									l.Release()
									return
								}
								for j := rng.Lo; j < rng.Hi; j++ {
									if got := view.At(j); got != want {
										t.Errorf("torn leased segment: chain %d has %v at %d, %v at %d",
											c, want, rng.Lo, got, j)
										l.Release()
										return
									}
								}
							}
						}
						if !l.Release() {
							mixed.Add(1)
						}
					}
				}()
			}

			// Monitor: snapshots concurrent with both publishers and the
			// outside lease-holders.
			dst := make([]float64, dim)
			var seqs []int64
			snaps := 0
			for done := false; !done; snaps++ {
				select {
				case <-quiesced:
					done = true
				default:
				}
				seqs = st.Snapshot(dst, seqs)
				for c := 0; c < st.Chains(); c++ {
					r := st.ChainRange(c)
					want := dst[r.Lo]
					if want != float64(seqs[c]) {
						t.Fatalf("snap %d chain %d: segment value %v does not match seq %d", snaps, c, want, seqs[c])
					}
					for j := r.Lo; j < r.Hi; j++ {
						if dst[j] != want {
							t.Fatalf("snap %d chain %d: torn segment (%v at %d, %v at %d)",
								snaps, c, want, r.Lo, dst[j], j)
						}
					}
				}
				if snaps%8 == 0 {
					if _, ok := st.SnapshotConsistent(dst, 6); ok {
						want := dst[0]
						for j := range dst {
							if dst[j] != want && st.Chains() == 1 {
								t.Fatalf("inconsistent consistent-snapshot at %d", j)
							}
						}
					}
				}
			}
			leaseWG.Wait()

			// Retire with one lease still held: the held buffers survive
			// until release, then everything drains.
			var l Lease
			view := l.Acquire(st)
			st.Retire()
			if math.IsNaN(view.At(0)) || math.IsNaN(view.At(dim-1)) {
				t.Fatal("held lease poisoned by Retire")
			}
			if l.Release() {
				t.Fatal("lease spanning Retire classified consistent")
			}
			if !l.RetiredStore() {
				t.Fatal("RetiredStore() = false after retire-spanning release")
			}
			if got := st.Live(); got != 0 {
				t.Fatalf("Live = %d after final release, want 0", got)
			}
			t.Logf("snapshots=%d mixedLeases=%d", snaps, mixed.Load())
		})
	}
}
