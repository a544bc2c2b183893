package paramvec

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"leashedsgd/internal/rng"
)

// A reclaimed ParameterVector is parked whole and checked out again, header
// included, so the pointer a reader fetched from P can name a later life of
// the same header. The tests below drive that ABA by hand and under load.

// parked counts the vectors in p's free set.
func (p *Pool) parked() int {
	n := 0
	for i := range p.free {
		if p.free[i].v.Load() != nil {
			n++
		}
	}
	return n
}

// generation returns v's current generation.
func (v *Vector) generation() uint64 { return v.state.Load() >> genShift }

// supersede publishes a copy of s's head at the next T on top of it through
// the read protocol, so the replaced head is reclaimed as soon as no one else
// reads it. It returns the new head.
func supersede(t *testing.T, s *Shared, p *Pool) *Vector {
	t.Helper()
	cur := s.Latest()
	nv := New(p)
	nv.CopyFrom(cur)
	nv.T++
	if !s.TryPublish(cur, nv) {
		t.Fatal("uncontended publish lost its CAS")
	}
	cur.StopReading()
	return nv
}

// TestRecycledHeaderABA is a hand-driven interleaving, in the style of
// TestShardingReducesCASContention, of a reader that fetched P before its
// head was superseded, reclaimed and reused: the reader never gets the
// private reused vector, a registration it made before the reuse dies with
// the old life, and no late withdrawal of it reclaims the reused header —
// not while the header is private, not once it is republished, and not once
// it is superseded again while a reader of its new life still reads it.
func TestRecycledHeaderABA(t *testing.T) {
	p := NewPool(4)
	var s Shared
	h := New(p)
	for i := range h.Theta {
		h.Theta[i] = 1
	}
	s.Publish(h)

	// The reader fetches P; the writer supersedes the head before the
	// reader registers, and the head is reclaimed into the free set.
	fetched := s.Peek()
	n := supersede(t, &s, p)
	if !h.Deleted() || p.parked() != 1 {
		t.Fatalf("superseded unread head: deleted = %v, parked = %d; want reclaimed and parked", h.Deleted(), p.parked())
	}
	// A registration that lands on the parked header, after the reclaim.
	oldGen := fetched.startReading()

	// The next checkout reuses the header: a new generation, no reader, no
	// flag, and the late registration discarded with the old life.
	w := New(p)
	if w != h {
		t.Fatal("checkout did not reuse the parked header")
	}
	if w.generation() == oldGen || w.Readers() != 0 || w.Stale() || w.Deleted() {
		t.Fatalf("reused header: generation %d (was %d), readers %d, stale %v, deleted %v",
			w.generation(), oldGen, w.Readers(), w.Stale(), w.Deleted())
	}
	for i := range w.Theta {
		w.Theta[i] = 99 // private content no reader may see
	}

	// The reader's confirmation on the private header fails: P moved.
	if s.register(fetched) {
		t.Fatal("a reader got the private reused vector")
	}
	if w.Readers() != 0 || w.Deleted() {
		t.Fatalf("after the refused registration: readers %d, deleted %v; want 0 and private", w.Readers(), w.Deleted())
	}
	// A registration on the private header, withdrawn once it is
	// republished: the head is not reclaimed.
	privGen := fetched.startReading()
	cur := s.Latest()
	if cur != n {
		t.Fatal("Latest did not return the writer's head")
	}
	w.T = n.T + 1
	if !s.TryPublish(cur, w) {
		t.Fatal("republishing the reused header lost its CAS")
	}
	cur.StopReading()
	fetched.stopReadingGen(privGen)
	if s.Peek() != w || w.Stale() || w.Deleted() || w.Readers() != 0 {
		t.Fatalf("republished head: current %v, stale %v, deleted %v, readers %d",
			s.Peek() == w, w.Stale(), w.Deleted(), w.Readers())
	}

	// A reader of the new life, then the head is superseded again; the
	// registration from before the reuse is withdrawn late. It must not
	// take the new reader's count with it.
	reader := s.Latest()
	if reader != w || reader.Theta[0] != 99 {
		t.Fatalf("Latest = republished head %v with θ[0] = %v", reader == w, reader.Theta[0])
	}
	supersede(t, &s, p)
	fetched.stopReadingGen(oldGen)
	if w.Deleted() || w.Readers() != 1 {
		t.Fatalf("late withdrawal from the old life: deleted %v, readers %d; want the new reader's 1", w.Deleted(), w.Readers())
	}
	if w.Theta[0] != 99 {
		t.Fatalf("read-protected θ[0] = %v, want 99", w.Theta[0])
	}
	reader.StopReading()
	if !w.Deleted() {
		t.Fatal("the last reader of a superseded head did not reclaim it")
	}
	// Live: the current head only. Every checkout after the first reused.
	if p.Live() != 1 || p.Allocs()+p.Reuses() != 4 {
		t.Fatalf("Live %d, Allocs %d, Reuses %d; want 1 live of 4 checkouts", p.Live(), p.Allocs(), p.Reuses())
	}
}

// TestFreeSetNewestFirst: a checkout takes the parked vector holding the
// newest chain version, and a full set leaves the surplus to the garbage
// collector with the gauges exact.
func TestFreeSetNewestFirst(t *testing.T) {
	p := NewPool(2)
	vs := make([]*Vector, freeSlots+2)
	for i := range vs {
		vs[i] = New(p)
		vs[i].ver = int64(10 * i % 7) // parked versions out of order
	}
	for _, v := range vs {
		v.Release()
	}
	if p.parked() != freeSlots || p.Live() != 0 {
		t.Fatalf("parked %d, live %d; want a full set of %d and none live", p.parked(), p.Live(), freeSlots)
	}
	var got []int64
	for p.parked() > 0 {
		got = append(got, New(p).ver)
	}
	if !slices.IsSortedFunc(got, func(a, b int64) int { return int(b - a) }) {
		t.Fatalf("checkout versions %v, want newest first", got)
	}
	if p.Allocs() != int64(len(vs)) || p.Reuses() != freeSlots || p.Live() != freeSlots {
		t.Fatalf("allocs %d, reuses %d, live %d", p.Allocs(), p.Reuses(), p.Live())
	}
}

// TestRacePoisonedScatterExactCounts stresses the sparse publish as the
// Leashed loop now runs it, on a poisoned store where every reclaimed buffer
// reads NaN: each publisher leases only the chains its step indexes, takes
// the leased head as its first attempt's expected vector while it is still
// the head, and drops each chain's registration when that chain's publish
// ends — so headers are reclaimed and reused at the highest rate the loop
// allows. Every cell must end at its exact count of successful +1 writes,
// each chain's T at its count of publishes, Live at one head per chain, Peak
// within Lemma 2, and Allocs + Reuses at the number of checkouts, at
// Tp ∈ {∞, 0, 1}.
func TestRacePoisonedScatterExactCounts(t *testing.T) {
	const (
		dim        = 256
		chains     = 8
		publishers = 3
	)
	for _, tc := range []struct {
		name string
		tp   int
	}{{"TpInf", math.MaxInt}, {"Tp0", 0}, {"Tp1", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewStore(dim, chains)
			st.SetPoison(true)
			st.PublishInit(make([]float64, dim))
			rounds := stressIters(t, 20000)
			hits := make([][]int64, publishers)      // per publisher, per cell
			chainPubs := make([][]int64, publishers) // per publisher, per chain
			checkouts := make([]int64, publishers)
			var wg sync.WaitGroup
			for p := 0; p < publishers; p++ {
				hits[p], chainPubs[p] = make([]int64, dim), make([]int64, chains)
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					r := rng.NewStream(43, p)
					ones := make([]float64, dim)
					for k := range ones {
						ones[k] = 1
					}
					var seen [dim]bool
					idx := make([]int32, 0, dim)
					gath := make([]float64, dim)
					support := make([]int, 0, chains)
					var l Lease
					for round := 0; round < rounds; round++ {
						idx = idx[:0]
						for n := 1 + r.Intn(16); len(idx) < n; {
							if j := r.Intn(dim); !seen[j] {
								seen[j] = true
								idx = append(idx, int32(j))
							}
						}
						slices.Sort(idx)
						support = support[:0]
						for _, j := range idx {
							seen[j] = false
							if c := int(j) / (dim / chains); len(support) == 0 || support[len(support)-1] != c {
								support = append(support, c)
							}
						}
						// The step's read: every leased cell is a whole count.
						for k, w := range l.AcquireChains(st, support).GatherSparse(idx, gath) {
							if w < 0 || w != math.Trunc(w) {
								t.Errorf("publisher %d read cell %d = %v", p, idx[k], w)
							}
						}
						l.Check()
						for k := range support {
							c := support[(p+k)%len(support)]
							cr := st.ChainRange(c)
							a, _ := slices.BinarySearch(idx, int32(cr.Lo))
							b, _ := slices.BinarySearch(idx, int32(cr.Hi))
							cur := l.Take(c)
							nv := st.NewChainVec(c)
							checkouts[p]++
							for tries := 0; ; tries++ {
								if cur == nil || st.ChainPeek(c) != cur {
									if cur != nil {
										cur.StopReading()
									}
									cur = st.ChainLatest(c)
								}
								ok := st.ChainTryPublishSparse(c, cur, nv, idx[a:b], ones[a:b], -1)
								cur.StopReading()
								cur = nil
								if ok {
									chainPubs[p][c]++
									for _, j := range idx[a:b] {
										hits[p][j]++
									}
									break
								}
								if tries >= tc.tp {
									nv.Release()
									break
								}
							}
						}
						l.Drop()
					}
				}(p)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()

			// An outside reader holds full leases across a few scheduling
			// points, so the heads it pins come back late.
			var l Lease
			last, cur := make([]float64, dim), make([]float64, dim)
			for reading := true; reading; {
				select {
				case <-done:
					reading = false
				default:
				}
				v := l.Acquire(st)
				for j := range cur {
					cur[j] = v.At(j)
				}
				for k := 0; k < 4; k++ {
					runtime.Gosched()
				}
				l.Release()
				for j := range cur {
					if cur[j] < last[j] || cur[j] != math.Trunc(cur[j]) {
						t.Fatalf("cell %d read %v after %v", j, cur[j], last[j])
					}
				}
				last, cur = cur, last
			}

			final := make([]float64, dim)
			seqs := st.Snapshot(final, nil)
			for j := range final {
				var want int64
				for p := range hits {
					want += hits[p][j]
				}
				if final[j] != float64(want) {
					t.Fatalf("cell %d = %v after %d successful increments", j, final[j], want)
				}
			}
			var total int64
			for c := 0; c < chains; c++ {
				var want int64
				for p := range chainPubs {
					want += chainPubs[p][c]
				}
				if seqs[c] != want {
					t.Fatalf("chain %d: T = %d after %d successful publishes", c, seqs[c], want)
				}
			}
			for _, n := range checkouts {
				total += n
			}
			if got := st.Live(); got != chains {
				t.Fatalf("Live = %d after quiesce, want %d (one head per chain)", got, chains)
			}
			if got := st.Allocs() + st.Reuses(); got != total+chains {
				t.Fatalf("Allocs + Reuses = %d, want %d checkouts + %d initial heads", got, total, chains)
			}
			// Per chain, the head, each publisher's held vector (its lease or
			// cur) and private nv, and the vector the outside reader's lease
			// may still pin after it was replaced.
			if bound := int64(chains * (2*publishers + 2)); st.Peak() > bound {
				t.Fatalf("Peak = %d live chain vectors, bound %d", st.Peak(), bound)
			}
			t.Logf("checkouts %d, allocs %d, peak %d", total, st.Allocs(), st.Peak())
			st.Retire()
			if got := st.Live(); got != 0 {
				t.Fatalf("Live = %d after Retire, want 0", got)
			}
		})
	}
}
