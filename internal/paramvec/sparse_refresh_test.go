package paramvec

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"leashedsgd/internal/rng"
)

// The sparse publish refreshes a recycled chain buffer from the head only at
// the components the head's change log lists since the version the buffer
// holds (Vector.refresh), and falls back to the full copy otherwise. A
// poisoned pool forgets every buffer's version, so a poisoned store always
// takes the full copy; the tests below run the same publishes on a poisoned
// and a clean store and require the same bits, and stress the clean store
// against exact counts.

// diffRefresh reports whether publishing v on top of head takes the diff
// refresh rather than the full copy. It restates the condition of
// Vector.refresh so the tests can require that the path they mean to test
// ran; whether that path is right is what the bit comparisons decide.
func diffRefresh(v, head *Vector) bool {
	l := head.log
	return l != nil && head.ver == head.T && l.cover <= v.ver && v.ver <= head.T
}

// refreshSide is one store of the equivalence test, the leases it holds and
// which refresh its publishes took.
type refreshSide struct {
	name   string
	st     ParamStore
	leases []*Lease
	diffs  int
	copies int
	// retries counts attempts of a vector that lost its CAS: it was restored
	// in hand, not recycled, so even a poisoned store refreshes it by diff.
	retries int
	// lastDiff is whether the last attempt took the diff refresh.
	lastDiff bool
}

// try runs one ChainTryPublishSparse of nv on top of cur, which the caller
// read-protects, and records which refresh it took.
func (sd *refreshSide) try(c int, cur, nv *Vector, idx []int32, val []float64, eta float64) bool {
	sd.lastDiff = diffRefresh(nv, cur)
	if sd.lastDiff {
		sd.diffs++
	} else {
		sd.copies++
	}
	return sd.st.ChainTryPublishSparse(c, cur, nv, idx, val, eta)
}

// attempt runs one publish attempt of nv on chain c's current head.
func (sd *refreshSide) attempt(c int, nv *Vector, idx []int32, val []float64, eta float64) bool {
	cur := sd.st.ChainLatest(c)
	ok := sd.try(c, cur, nv, idx, val, eta)
	cur.StopReading()
	return ok
}

// publish is one uncontended sparse publish on chain c.
func (sd *refreshSide) publish(t *testing.T, c int, idx []int32, val []float64, eta float64) {
	t.Helper()
	if !sd.attempt(c, sd.st.NewChainVec(c), idx, val, eta) {
		t.Fatalf("%s: uncontended sparse publish on chain %d lost its CAS", sd.name, c)
	}
}

// mustLose runs one attempt of nv on cur, a head already replaced, and
// requires it to lose and to leave nv bit-equal to cur at cur's version:
// the restore that makes a loser's retry or Release safe.
func (sd *refreshSide) mustLose(t *testing.T, c int, cur, nv *Vector, idx []int32, val []float64, eta float64) {
	t.Helper()
	if sd.try(c, cur, nv, idx, val, eta) {
		t.Fatalf("%s: attempt on a replaced head of chain %d published", sd.name, c)
	}
	if nv.ver != cur.T {
		t.Fatalf("%s: loser holds version %d, want the head it lost against (%d)", sd.name, nv.ver, cur.T)
	}
	for j := range cur.Theta {
		if math.Float64bits(nv.Theta[j]) != math.Float64bits(cur.Theta[j]) {
			t.Fatalf("%s: loser differs from the head it lost against at %d: %v vs %v", sd.name, j, nv.Theta[j], cur.Theta[j])
		}
	}
}

// lose checks a vector out and runs one attempt against the head it read
// while a rival publishes rivalIdx (values quarters(len(rivalIdx))) in
// between: the attempt must lose. The caller retries or releases the
// returned vector.
func (sd *refreshSide) lose(t *testing.T, c int, idx, rivalIdx []int32, val []float64, eta float64) *Vector {
	t.Helper()
	nv := sd.st.NewChainVec(c)
	cur := sd.st.ChainLatest(c)
	sd.publish(t, c, rivalIdx, quarters(len(rivalIdx)), eta)
	sd.mustLose(t, c, cur, nv, idx, val, eta)
	cur.StopReading()
	return nv
}

// dense publishes delta·η on chain c through the dense path, which leaves a
// head with no change log.
func (sd *refreshSide) dense(t *testing.T, c int, delta []float64, eta float64) {
	t.Helper()
	r := sd.st.ChainRange(c)
	nv := sd.st.NewChainVec(c)
	cur := sd.st.ChainLatest(c)
	ok := nv.UpdateFrom(cur, delta[r.Lo:r.Hi], eta) && sd.st.ChainTryPublish(c, cur, nv)
	cur.StopReading()
	if !ok {
		t.Fatalf("%s: uncontended dense publish on chain %d failed", sd.name, c)
	}
}

func (sd *refreshSide) hold() {
	l := new(Lease)
	l.Acquire(sd.st)
	sd.leases = append(sd.leases, l)
}

func (sd *refreshSide) drop(k int) {
	sd.leases[k].Release()
	sd.leases = slices.Delete(sd.leases, k, k+1)
}

// refreshPair drives a poisoned and a clean store through the same script
// and keeps the exact expected parameters beside them. Every value in the
// script is a small multiple of 1/4, so the expected sums are exact whether
// or not the compiler fuses a multiply-add.
type refreshPair struct {
	t        *testing.T
	sides    [2]*refreshSide // poisoned, clean
	poisoned *refreshSide
	clean    *refreshSide
	want     []float64
	snap     []float64
	steps    int
}

func newRefreshPair(t *testing.T, dim, chains int) *refreshPair {
	p := &refreshPair{t: t, want: make([]float64, dim), snap: make([]float64, dim)}
	for j := range p.want {
		p.want[j] = float64(j%7) - 3
	}
	for i, poison := range []bool{true, false} {
		st := NewStore(dim, chains)
		st.SetPoison(poison)
		st.PublishInit(p.want)
		p.sides[i] = &refreshSide{name: []string{"poisoned", "clean"}[i], st: st}
	}
	p.poisoned, p.clean = p.sides[0], p.sides[1]
	return p
}

// do applies op to both stores, then requires both snapshots to equal the
// expected parameters bit for bit; the caller folds op's effect into them
// first (expect, expectDense).
func (p *refreshPair) do(what string, op func(sd *refreshSide)) {
	p.t.Helper()
	p.steps++
	for _, sd := range p.sides {
		op(sd)
	}
	for _, sd := range p.sides {
		sd.st.Snapshot(p.snap, nil)
		for j, w := range p.want {
			if math.Float64bits(p.snap[j]) != math.Float64bits(w) {
				p.t.Fatalf("step %d (%s): %s store has θ[%d] = %v, want %v", p.steps, what, sd.name, j, p.snap[j], w)
			}
		}
	}
}

// expect folds one applied sparse step into the expected parameters.
func (p *refreshPair) expect(idx []int32, val []float64, eta float64) {
	for k, j := range idx {
		p.want[j] -= eta * val[k]
	}
}

// expectDense folds one applied dense step on chain c into the expected
// parameters.
func (p *refreshPair) expectDense(c int, delta []float64, eta float64) {
	r := p.clean.st.ChainRange(c)
	for j := r.Lo; j < r.Hi; j++ {
		p.want[j] -= eta * delta[j]
	}
}

// requireDiff checks which refresh the clean store's last attempt took.
func (p *refreshPair) requireDiff(what string, want bool) {
	p.t.Helper()
	if got := p.clean.lastDiff; got != want {
		p.t.Fatalf("step %d (%s): clean store took the diff refresh = %v, want %v", p.steps, what, got, want)
	}
}

func (p *refreshPair) close() {
	for _, sd := range p.sides {
		for len(sd.leases) > 0 {
			sd.drop(0)
		}
		sd.st.Retire()
		if live := sd.st.Live(); live != 0 {
			p.t.Fatalf("%s: Live = %d after retire, want 0", sd.name, live)
		}
	}
}

// quarters returns the n values k/4 for k = 1..n.
func quarters(n int) []float64 {
	v := make([]float64, n)
	for k := range v {
		v[k] = float64(k+1) / 4
	}
	return v
}

// TestSparseRefreshMatchesFullCopy is the deterministic equivalence test of
// the diff refresh: one scripted sequence of scatter publishes runs on a
// poisoned store (every refresh of a recycled buffer a full copy) and a
// clean one (diffs wherever a head's log reaches back to the buffer's
// version), and after every step both must hold the exact expected
// parameters. The script covers a lost CAS and its retry, a Tp drop followed
// by Release and reuse, a buffer newer than the head it is refreshed from, a
// change set larger than the log, a head published densely (no log) and
// buffers that come back several versions behind because a lease held them;
// a seeded random tail then mixes all of these.
func TestSparseRefreshMatchesFullCopy(t *testing.T) {
	const dim, chains = 64, 2 // chain 0 is [0, 32), chain 1 is [32, 64)
	p := newRefreshPair(t, dim, chains)
	defer p.close()

	pub := func(what string, c int, idx []int32, eta float64) {
		t.Helper()
		val := quarters(len(idx))
		p.expect(idx, val, eta)
		p.do(what, func(sd *refreshSide) { sd.publish(t, c, idx, val, eta) })
	}

	// First publishes check out fresh buffers: full copies.
	pub("first on chain 0", 0, []int32{1, 5}, 1)
	p.requireDiff("first on chain 0", false)
	pub("first on chain 1", 1, []int32{40}, 1)
	// The init head's buffer came back at version 0; the head's log covers it.
	pub("second on chain 0", 0, []int32{2}, 0.5)
	p.requireDiff("second on chain 0", true)
	pub("third on chain 0", 0, []int32{3, 4}, -1)
	p.requireDiff("third on chain 0", true)

	// A hand-driven lost CAS: the loser restores its own components and
	// retries from the new head through its log.
	{
		idx, rival := []int32{1, 9}, []int32{7}
		val := quarters(2)
		p.expect(rival, val[:1], 1)
		p.expect(idx, val, 1)
		p.do("lost CAS then retry", func(sd *refreshSide) {
			nv := sd.lose(t, 0, idx, rival, val, 1)
			sd.retries++
			if !sd.attempt(0, nv, idx, val, 1) {
				t.Fatalf("%s: uncontended retry lost", sd.name)
			}
		})
		p.requireDiff("retry after a lost CAS", true)
	}

	// A Tp drop: the loser goes back to the pool clean at the version it
	// lost against, and the next publish on the chain reuses it.
	{
		idx, rival := []int32{50}, []int32{33}
		val := quarters(1)
		p.expect(rival, val, 1)
		p.do("lost CAS then Tp drop", func(sd *refreshSide) {
			sd.lose(t, 1, idx, rival, val, 1).Release()
		})
		pub("reuse of the dropped buffer", 1, []int32{34}, 1)
		p.requireDiff("reuse of the dropped buffer", true)
	}

	// A buffer newer than the head it is refreshed from: the attempt read its
	// head before checking the vector out, and the checkout returned a loser
	// parked at a later head. The refresh must copy in full (not diff from a
	// version the buffer is past), and the attempt loses and restores.
	{
		r1, r2, idx := []int32{41}, []int32{42}, []int32{43, 60}
		val := quarters(2)
		p.expect(r1, val[:1], 1)
		p.expect(r2, val[:1], 1)
		p.expect(idx, val, 1)
		p.do("buffer newer than its head", func(sd *refreshSide) {
			old := sd.st.ChainLatest(1)
			sd.publish(t, 1, r1, val[:1], 1)
			sd.lose(t, 1, idx, r2, val, 1).Release()
			nv := sd.st.NewChainVec(1)
			if sd == p.clean && nv.ver != old.T+1 {
				t.Fatalf("checked out version %d, want the parked loser at %d", nv.ver, old.T+1)
			}
			sd.mustLose(t, 1, old, nv, idx, val, 1)
			old.StopReading()
			sd.retries++
			if !sd.attempt(1, nv, idx, val, 1) {
				t.Fatalf("%s: uncontended retry lost", sd.name)
			}
		})
		p.requireDiff("retry of the late attempt", true)
	}

	// A change set larger than the log: its head lists nothing, so the next
	// publish copies in full; the one after is covered again.
	{
		big := make([]int32, logCap+4)
		for k := range big {
			big[k] = int32(10 + k)
		}
		pub("change set beyond the log", 0, big, 1)
		pub("after an overflowing head", 0, []int32{6}, 1)
		p.requireDiff("after an overflowing head", false)
		pub("covered again", 0, []int32{8}, 1)
		p.requireDiff("covered again", true)
	}

	// A dense head carries no log: the next sparse publish copies in full.
	// The dense head's own buffer then comes back at its T, which the
	// following head's log covers.
	{
		delta := make([]float64, dim)
		for j := range delta {
			delta[j] = float64(j%3) - 1
		}
		p.expectDense(1, delta, 0.25)
		p.do("dense head", func(sd *refreshSide) { sd.dense(t, 1, delta, 0.25) })
		pub("sparse on a dense head", 1, []int32{35}, 1)
		p.requireDiff("sparse on a dense head", false)
		pub("on a recycled dense buffer", 1, []int32{36}, 1)
		p.requireDiff("on a recycled dense buffer", true)
	}

	// Buffers several versions behind: a lease pins the head while k
	// versions of three changes each land, and the released buffer is the
	// next one checked out. The head's log holds whole versions of three
	// changes, newest first, while they fit, so it reaches back to the
	// buffer exactly when all k versions do: 3k ≤ logCap.
	for k := 1; k <= 5; k++ {
		p.do("hold", (*refreshSide).hold)
		for v := 0; v < k; v++ {
			base := int32(3 * v)
			pub(fmt.Sprintf("version %d of %d behind a lease", v+1, k), 0, []int32{base + 11, base + 12, base + 13}, 0.5)
		}
		p.do("release", func(sd *refreshSide) { sd.drop(0) })
		what := fmt.Sprintf("buffer %d versions behind", k)
		pub(what, 0, []int32{2, 30}, 1)
		p.requireDiff(what, 3*k <= logCap)
	}

	// Seeded random tail: mixed change-set sizes, lost CASes, drops, dense
	// heads and up to three held leases.
	r := rng.New(27)
	steps := 4000
	if testing.Short() {
		steps = 800
	}
	perm := make([]int, 32)
	for s := 0; s < steps; s++ {
		c := r.Intn(chains)
		pick := func() []int32 {
			n := 1 + r.Intn(3)
			if r.Intn(8) == 0 {
				n = 1 + r.Intn(logCap+4)
			}
			r.Perm(perm)
			idx := make([]int32, n)
			for k := range idx {
				idx[k] = int32(32*c + perm[k])
			}
			slices.Sort(idx)
			return idx
		}
		eta := []float64{1, 0.5, -0.25, -1}[r.Intn(4)]
		switch op := r.Intn(100); {
		case op < 55:
			pub("random publish", c, pick(), eta)
		case op < 73:
			idx, rival := pick(), pick()
			val, rval := quarters(len(idx)), quarters(len(rival))
			retry := op < 65
			p.expect(rival, rval, eta)
			if retry {
				p.expect(idx, val, eta)
			}
			p.do("random lost CAS", func(sd *refreshSide) {
				nv := sd.lose(t, c, idx, rival, val, eta)
				if !retry {
					nv.Release()
					return
				}
				sd.retries++
				if !sd.attempt(c, nv, idx, val, eta) {
					t.Fatalf("%s: uncontended retry lost", sd.name)
				}
			})
		case op < 78:
			delta := make([]float64, dim)
			for j := range delta {
				delta[j] = float64(r.Intn(5) - 2)
			}
			p.expectDense(c, delta, 0.25)
			p.do("random dense head", func(sd *refreshSide) { sd.dense(t, c, delta, 0.25) })
		case op < 90:
			if len(p.clean.leases) < 3 {
				p.do("hold", (*refreshSide).hold)
			}
		default:
			if n := len(p.clean.leases); n > 0 {
				k := r.Intn(n)
				p.do("release", func(sd *refreshSide) { sd.drop(k) })
			}
		}
	}
	if p.poisoned.diffs > p.poisoned.retries {
		t.Fatalf("poisoned store took %d diff refreshes for %d retries: a poisoned buffer kept its version", p.poisoned.diffs, p.poisoned.retries)
	}
	if p.clean.diffs < 2*p.clean.copies {
		t.Fatalf("clean store: %d diff refreshes against %d full copies; the script no longer exercises the diff path", p.clean.diffs, p.clean.copies)
	}
	t.Logf("%d steps; clean store: %d diff refreshes, %d full copies", p.steps, p.clean.diffs, p.clean.copies)
}

// TestRaceScatterExactCounts is the unpoisoned concurrent stress of the diff
// refresh. Publishers scatter +1 increments over random index sets — some
// spread over many chains, some clustered beyond the log's capacity — while
// a reader holds leases across their publishes, so recycled buffers come
// back versions behind their heads. Nothing is poisoned, so nearly every
// refresh is a diff. Every cell must end equal to the number of successful
// publishes that incremented it, every chain's T to its number of successful
// publishes, and the reader must never see a cell decrease. It runs at
// Tp ∈ {∞, 0, 1}, so lost CASes restore and retry or drop and recycle.
func TestRaceScatterExactCounts(t *testing.T) {
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
			st.PublishInit(make([]float64, dim))
			rounds := stressIters(t, 20000)
			hits := make([][]int64, publishers)      // per publisher, per cell
			chainPubs := make([][]int64, publishers) // per publisher, per chain
			var diffs, copies atomic.Int64
			var wg sync.WaitGroup
			for p := 0; p < publishers; p++ {
				hits[p], chainPubs[p] = make([]int64, dim), make([]int64, chains)
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					r := rng.NewStream(31, p)
					ones := make([]float64, dim)
					for k := range ones {
						ones[k] = 1
					}
					var seen [dim]bool
					idx := make([]int32, 0, dim)
					var nDiff, nCopy int64
					for round := 0; round < rounds; round++ {
						// A clustered round lands in one chain, up to half
						// again the log's capacity; a spread one anywhere.
						lo, span, n := 0, dim, 1+r.Intn(16)
						if r.Intn(4) == 0 {
							lo, span, n = 32*r.Intn(chains), 32, 1+r.Intn(logCap+logCap/2)
						}
						idx = idx[:0]
						for len(idx) < n {
							j := lo + r.Intn(span)
							if !seen[j] {
								seen[j] = true
								idx = append(idx, int32(j))
							}
						}
						slices.Sort(idx)
						for _, j := range idx {
							seen[j] = false
						}
						for c := 0; c < chains; c++ {
							cr := st.ChainRange(c)
							a, _ := slices.BinarySearch(idx, int32(cr.Lo))
							b, _ := slices.BinarySearch(idx, int32(cr.Hi))
							if a == b {
								continue
							}
							nv := st.NewChainVec(c)
							for tries := 0; ; tries++ {
								cur := st.ChainLatest(c)
								if diffRefresh(nv, cur) {
									nDiff++
								} else {
									nCopy++
								}
								ok := st.ChainTryPublishSparse(c, cur, nv, idx[a:b], ones[a:b], -1)
								cur.StopReading()
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
					}
					diffs.Add(nDiff)
					copies.Add(nCopy)
				}(p)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()

			// The reader holds each lease across a few scheduling points so
			// the heads it pins are recycled late, versions behind.
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
			for c := 0; c < chains; c++ {
				var want int64
				for p := range chainPubs {
					want += chainPubs[p][c]
				}
				if seqs[c] != want {
					t.Fatalf("chain %d: T = %d after %d successful publishes", c, seqs[c], want)
				}
			}
			if got := st.Live(); got != chains {
				t.Fatalf("Live = %d after quiesce, want %d (one head per chain)", got, chains)
			}
			if d, c := diffs.Load(), copies.Load(); d < c {
				t.Fatalf("%d diff refreshes against %d full copies: the stress no longer exercises the diff path", d, c)
			}
			t.Logf("diff refreshes %d, full copies %d", diffs.Load(), copies.Load())
			st.Retire()
		})
	}
}
