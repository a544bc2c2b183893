package sgd

import (
	"fmt"
	"math"
	"testing"

	"leashedsgd/internal/data"
	"leashedsgd/internal/nn"
	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/sparse"
	"leashedsgd/internal/tensor"
)

// longDim is a chain longer than any block size the fused publish pass could
// sensibly use; the tests below fail loudly (a CAS gets counted) if the block
// ever grows past it, instead of silently testing nothing.
const longDim = 1 << 18

// countDenseCAS counts the CASes dense publish attempts issue until the test
// ends (onDenseCAS). The rival publishes below issue theirs directly and are
// not counted.
func countDenseCAS(t *testing.T) *int {
	n := new(int)
	onDenseCAS = func() { *n++ }
	t.Cleanup(func() { onDenseCAS = nil })
	return n
}

// rivalPublish replaces chain 0's head with the same parameters at the next
// sequence number — another worker winning the race.
func rivalPublish(t *testing.T, st *paramvec.Store, zeros []float64) {
	t.Helper()
	cur := st.ChainLatest(0)
	nv := st.NewChainVec(0)
	ok := nv.UpdateFrom(cur, zeros, 0) && st.ChainTryPublish(0, cur, nv)
	cur.StopReading()
	if !ok {
		t.Fatal("rival publish lost an uncontended CAS")
	}
}

// TestDensePublishAbandonsWithoutCAS drives denseStep.publishChain itself:
// an attempt whose head is replaced mid-way reports a lost attempt WITHOUT
// issuing the CAS, and a warm attempt that does publish allocates nothing.
func TestDensePublishAbandonsWithoutCAS(t *testing.T) {
	st := paramvec.NewStore(longDim, 1)
	st.PublishInit(make([]float64, longDim))
	cas := countDenseCAS(t)
	r := st.ChainRange(0)
	g, zeros := make([]float64, longDim), make([]float64, longDim)
	tensor.Fill(g, 1)
	s := denseStep(g)

	cur := st.ChainLatest(0)
	rivalPublish(t, st, zeros)
	nv := st.NewChainVec(0)
	if s.publishChain(st, 0, r.Lo, r.Hi, cur, nv, 0.5) {
		t.Fatal("attempt on a replaced head published")
	}
	cur.StopReading()
	if *cas != 0 {
		t.Fatalf("abandoned attempt issued %d CAS, want none", *cas)
	}
	// The same private vector carries the retry.
	cur = st.ChainLatest(0)
	if !s.publishChain(st, 0, r.Lo, r.Hi, cur, nv, 0.5) {
		t.Fatal("retry from the new head lost an uncontended CAS")
	}
	cur.StopReading()
	if head := st.ChainPeek(0); head != nv || head.T != 2 || head.Theta[0] != -0.5 || head.Theta[longDim-1] != -0.5 {
		t.Fatalf("head after retry: T=%d θ[0]=%v, want the retried vector at T=2, θ=−0.5", head.T, head.Theta[0])
	}

	// Warm: the checkout is inside the measured function, so a publish
	// that recycles its replaced head and hands it out again allocates
	// nothing — not the header, not the buffer.
	if a := testing.AllocsPerRun(10, func() {
		nv := st.NewChainVec(0)
		cur := st.ChainLatest(0)
		if !s.publishChain(st, 0, r.Lo, r.Hi, cur, nv, 0.5) {
			t.Error("uncontended publish failed")
		}
		cur.StopReading()
	}); a != 0 {
		t.Fatalf("warm dense checkout + publishChain allocates %v per attempt, want 0", a)
	}
}

// TestSparseCommitLeasesSupportWithoutAllocating drives one worker's whole
// sparse iteration — sample, read, gradient, check, commit — on a 64-chain
// store: the read leases exactly the chains the sampled example indexes,
// each of those chains publishes once, and a warm iteration allocates
// nothing.
func TestSparseCommitLeasesSupportWithoutAllocating(t *testing.T) {
	ds := sparse.Generate(sparse.GenConfig{N: 256, Dim: 4096, NNZ: 16, Seed: 5, Noise: 0.02})
	cfg := sparseTestConfig(Leashed, 1)
	cfg.BatchSize = 1
	cfg.Shards = 64
	rt := newRuntime(cfg, newSparseProblem(ds))
	st := rt.newLeashedStrategy(paramvec.New(rt.pool))
	w := rt.newLoopWorker(0)
	st.setup(w)
	defer w.gw.close()
	store := st.store

	iterate := func() {
		w.gw.sample()
		pv := st.read(w)
		s := w.gw.compute(pv, nil)
		st.endRead(w)
		if !st.commit(w, s) {
			t.Error("commit reported an exhausted budget")
		}
	}
	// One inspected iteration: the lease holds exactly the support.
	w.gw.sample()
	ex := ds.Examples[w.gw.(*sparseGradWorker).batch.Indices[0]]
	want := map[int]bool{}
	for _, j := range ex.Idx {
		for c := 0; c < store.Chains(); c++ {
			if r := store.ChainRange(c); int(j) >= r.Lo && int(j) < r.Hi {
				want[c] = true
			}
		}
	}
	pv := st.read(w)
	for c := 0; c < store.Chains(); c++ {
		if held := store.ChainPeek(c).Readers() > 0; held != want[c] {
			t.Fatalf("chain %d: leased = %v, in the example's support = %v", c, held, want[c])
		}
	}
	s := w.gw.compute(pv, nil)
	st.endRead(w)
	st.commit(w, s)
	var pubs int64
	for c := 0; c < store.Chains(); c++ {
		n, _, _ := st.sums(c)
		if (n == 1) != want[c] || n > 1 {
			t.Fatalf("chain %d published %d times; in the support = %v", c, n, want[c])
		}
		pubs += n
		if r := store.ChainPeek(c).Readers(); r != 0 {
			t.Fatalf("chain %d: %d registrations left after commit", c, r)
		}
	}
	if pubs != int64(len(want)) || len(want) >= store.Chains() {
		t.Fatalf("%d chains published for a support of %d of %d chains", pubs, len(want), store.Chains())
	}
	// Warm the 64 chains' free sets, then measure.
	for i := 0; i < 200; i++ {
		iterate()
	}
	if a := testing.AllocsPerRun(50, iterate); a != 0 {
		t.Fatalf("warm sparse iteration at S = 64 allocates %v, want 0", a)
	}
}

// stubProblem is a problem of a given dimension for tests that drive a
// strategy hook directly and never build a gradient worker.
type stubProblem struct {
	problem
	d, n int
}

func (p stubProblem) dim() int     { return p.d }
func (p stubProblem) dataLen() int { return p.n }

// movingHeadStep is a dense step whose every publish attempt finds that a
// rival has replaced the head it was handed.
type movingHeadStep struct {
	denseStep
	t      *testing.T
	zeros  []float64
	rivals *int
}

func (s movingHeadStep) publishChain(store *paramvec.Store, c, a, b int, cur, nv *paramvec.Vector, eta float64) bool {
	rivalPublish(s.t, store, s.zeros)
	*s.rivals++
	return s.denseStep.publishChain(store, c, a, b, cur, nv, eta)
}

// TestCommitCountsAbandonedAttemptAsLostCAS pins what an early exit means to
// leashedStrategy.commit: exactly a lost CAS. With Persistence = 1 and a head
// that always moves, the segment is dropped after exactly two tries, failed
// and dropped advance, the private buffer goes back to the pool and the
// budget unit is refunded — and no CAS but the rivals' was ever issued.
func TestCommitCountsAbandonedAttemptAsLostCAS(t *testing.T) {
	cfg := Config{Algo: Leashed, Workers: 1, Eta: 0.1, Persistence: 1, MaxUpdates: 10}
	rt := newRuntime(cfg, stubProblem{d: longDim})
	st := rt.newLeashedStrategy(paramvec.New(rt.pool))
	cas := countDenseCAS(t)
	w := &loopWorker{hist: rt.hists[0]}
	w.lease.Acquire(st.store)
	w.lease.Release()

	baseline := st.store.Live()
	g := make([]float64, longDim)
	tensor.Fill(g, 1)
	rivals := 0
	if !st.commit(w, movingHeadStep{denseStep: g, t: t, zeros: make([]float64, longDim), rivals: &rivals}) {
		t.Fatal("commit reported an exhausted budget")
	}
	if rivals != 2 {
		t.Fatalf("segment dropped after %d tries, want exactly 2 (Tp = 1)", rivals)
	}
	if *cas != 0 {
		t.Fatalf("%d CASes issued beside %d rival publishes: an abandoned attempt must not CAS", *cas, rivals)
	}
	f, d := st.failed[0].n.Load(), st.dropped[0].n.Load()
	if p, _, _ := st.sums(0); f != 2 || d != 1 || p != 0 {
		t.Fatalf("failed/dropped/published = %d/%d/%d, want 2/1/0", f, d, p)
	}
	if got := st.store.Live(); got != baseline {
		t.Fatalf("Live = %d after the drop, want the baseline %d", got, baseline)
	}
	if res, upd := rt.reserved.Load(), rt.updates.Load(); res != 0 || upd != 0 || w.reserved {
		t.Fatalf("reserved = %d, applied = %d after a dropped update, want the unit refunded", res, upd)
	}
	if head := st.store.ChainPeek(0); head.T != 2 || head.Theta[0] != 0 {
		t.Fatalf("head T=%d θ[0]=%v: only the rival's two publishes may be visible", head.T, head.Theta[0])
	}
}

// TestSingleWorkerAlgorithmsBitIdentical is the differential test of ROADMAP
// item 3: at m = 1 with one seed, SEQ, lock-based ASYNC and Leashed at S = 1
// and S = 4 walk the same trajectory to the last bit. It only holds because
// every one of them applies a step through the one tensor.AxpyTo kernel — an
// FMA rounds once where a scalar θ[i] −= η·δ rounds twice — and because the
// kernel's masked tail makes an element's result independent of where a
// chain boundary falls. The paper-scale rows (PaperMLP at b = 1, PaperCNN at
// b = 32) have d above paramvec's update block, so the dense publish's
// between-block look at the head runs on every update there; and their
// Dense layers straddle chain boundaries, so at S = 4 an input gradient is
// split into one MatMulAdd per segment, which every kernel tier (the
// portable one included) continues as one chain per element.
func TestSingleWorkerAlgorithmsBitIdentical(t *testing.T) {
	tiny := tinyDataset()
	paper := data.GenerateSynthetic(data.DefaultSyntheticConfig(256, 5))
	for _, row := range []struct {
		name    string
		net     *nn.Network
		ds      *data.Dataset
		batch   int
		updates int64
	}{
		{"tiny", tinyNet(tiny), tiny, 8, 300},
		{"PaperMLP", nn.NewPaperMLP(), paper, 1, 200},
		{"PaperCNN", nn.NewPaperCNN(), paper, 32, 20},
	} {
		t.Run(row.name, func(t *testing.T) {
			run := func(algo Algorithm, shards int) []float64 {
				cfg := testConfig(algo, 1)
				cfg.EpsilonFrac = 0
				cfg.BatchSize = row.batch
				cfg.MaxUpdates = row.updates
				cfg.Shards = shards
				res := runOrFatal(t, cfg, row.net, row.ds)
				if res.TotalUpdates != cfg.MaxUpdates {
					t.Fatalf("%v S=%d applied %d updates, want %d", algo, shards, res.TotalUpdates, cfg.MaxUpdates)
				}
				return res.FinalParams
			}
			want := run(Seq, 1)
			for _, arm := range []struct {
				name   string
				algo   Algorithm
				shards int
			}{{"ASYNC", Async, 1}, {"LSH/S1", Leashed, 1}, {"LSH/S4", Leashed, 4}} {
				got := run(arm.algo, arm.shards)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: θ[%d] = %v, SEQ has %v", arm.name, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestSingleWorkerSparseBitIdentical is the sparse counterpart: at m = 1,
// SEQ, ASYNC and Leashed at S = 1, 2 and 4 train sparse logistic regression
// to the same last bit, at b = 1 and b = 4. All of them compute the residual
// with tensor.SpDot — over the flat view at S = 1, over the gathered weights
// at identity indices on a segmented view — and apply the step with
// Vector.UpdateSparse, the Leashed side through the scatter-publish on the
// chains its lease read. At b = 1 the examples' 6 nonzeros keep every
// change set within the change log, so the diff refresh (a recycled vector
// brought up to the head at the logged components only) runs on most
// publishes, and a refresh that missed or misplaced one component would
// show; at b = 4 a change set overflows the log and the full copy runs.
func TestSingleWorkerSparseBitIdentical(t *testing.T) {
	ds := sparse.Generate(sparse.GenConfig{N: 256, Dim: 512, NNZ: 6, Seed: 11, Noise: 0.02})
	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("b=%d", batch), func(t *testing.T) {
			run := func(algo Algorithm, shards int) []float64 {
				cfg := sparseTestConfig(algo, 1)
				cfg.BatchSize = batch
				cfg.Shards = shards
				cfg.EpsilonFrac = 0
				cfg.MaxUpdates = 600
				res, err := RunSparse(cfg, ds)
				if err != nil {
					t.Fatal(err)
				}
				if res.TotalUpdates != cfg.MaxUpdates {
					t.Fatalf("%v S=%d applied %d updates, want %d", algo, shards, res.TotalUpdates, cfg.MaxUpdates)
				}
				return res.FinalParams
			}
			want := run(Seq, 1)
			for _, arm := range []struct {
				name   string
				algo   Algorithm
				shards int
			}{{"ASYNC", Async, 1}, {"LSH/S1", Leashed, 1}, {"LSH/S2", Leashed, 2}, {"LSH/S4", Leashed, 4}} {
				got := run(arm.algo, arm.shards)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: θ[%d] = %v, SEQ has %v", arm.name, i, got[i], want[i])
					}
				}
			}
		})
	}
}
