package sgd

import (
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

// casCountingStore counts the publish CASes issued through it.
type casCountingStore struct {
	paramvec.ParamStore
	cas int
}

func (s *casCountingStore) ChainTryPublish(c int, expected, v *paramvec.Vector) bool {
	s.cas++
	return s.ParamStore.ChainTryPublish(c, expected, v)
}

// rivalPublish replaces chain 0's head with the same parameters at the next
// sequence number — another worker winning the race.
func rivalPublish(t *testing.T, st paramvec.ParamStore, zeros []float64) {
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
	inner := paramvec.NewStore(longDim, 1)
	inner.PublishInit(make([]float64, longDim))
	st := &casCountingStore{ParamStore: inner}
	r := st.ChainRange(0)
	g, zeros := make([]float64, longDim), make([]float64, longDim)
	tensor.Fill(g, 1)
	s := denseStep(g)

	cur := st.ChainLatest(0)
	rivalPublish(t, inner, zeros)
	nv := st.NewChainVec(0)
	if s.publishChain(st, 0, r.Lo, r.Hi, cur, nv, 0.5) {
		t.Fatal("attempt on a replaced head published")
	}
	cur.StopReading()
	if st.cas != 0 {
		t.Fatalf("abandoned attempt issued %d CAS, want none", st.cas)
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

	const runs = 10
	fresh := make([]*paramvec.Vector, runs+1) // AllocsPerRun adds a warm-up call
	for i := range fresh {
		fresh[i] = st.NewChainVec(0)
	}
	i := 0
	if a := testing.AllocsPerRun(runs, func() {
		cur := st.ChainLatest(0)
		if !s.publishChain(st, 0, r.Lo, r.Hi, cur, fresh[i], 0.5) {
			t.Error("uncontended publish failed")
		}
		cur.StopReading()
		i++
	}); a != 0 {
		t.Fatalf("warm dense publishChain allocates %v per attempt, want 0", a)
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

func (s movingHeadStep) publishChain(store paramvec.ParamStore, c, a, b int, cur, nv *paramvec.Vector, eta float64) bool {
	rivalPublish(s.t, store, s.zeros)
	*s.rivals++
	return s.denseStep.publishChain(store, c, a, b, cur, nv, eta)
}

// TestCommitCountsAbandonedAttemptAsLostCAS pins what an early exit means to
// leashedStrategy.commit: exactly a lost CAS. With Persistence = 1 and a head
// that always moves, the segment is dropped after exactly two tries, failed
// and dropped advance, the private buffer goes back to the pool and the
// budget unit is refunded — and no CAS but the rival's was ever issued.
func TestCommitCountsAbandonedAttemptAsLostCAS(t *testing.T) {
	cfg := Config{Algo: Leashed, Workers: 1, Eta: 0.1, Persistence: 1, MaxUpdates: 10}
	rt := newRuntime(cfg, stubProblem{d: longDim})
	e := newShardEpoch(longDim, 1, make([]float64, longDim))
	counting := &casCountingStore{ParamStore: e.store}
	e.store = counting
	st := &leashedStrategy{rt: rt, e: e}
	w := &loopWorker{hist: rt.hists[0]}
	w.lease.Acquire(e.store)
	w.lease.Release()

	baseline := e.store.Live()
	g := make([]float64, longDim)
	tensor.Fill(g, 1)
	rivals := 0
	if !st.commit(w, movingHeadStep{denseStep: g, t: t, zeros: make([]float64, longDim), rivals: &rivals}) {
		t.Fatal("commit reported an exhausted budget")
	}
	if rivals != 2 {
		t.Fatalf("segment dropped after %d tries, want exactly 2 (Tp = 1)", rivals)
	}
	if counting.cas != rivals {
		t.Fatalf("%d CASes issued for %d rival publishes: an abandoned attempt must not CAS", counting.cas, rivals)
	}
	if f, d, p := e.failed[0].n.Load(), e.dropped[0].n.Load(), e.pub[0].n.Load(); f != 2 || d != 1 || p != 0 {
		t.Fatalf("failed/dropped/published = %d/%d/%d, want 2/1/0", f, d, p)
	}
	if got := e.store.Live(); got != baseline {
		t.Fatalf("Live = %d after the drop, want the baseline %d", got, baseline)
	}
	if res, upd := rt.reserved.Load(), rt.updates.Load(); res != 0 || upd != 0 || w.reserved {
		t.Fatalf("reserved = %d, applied = %d after a dropped update, want the unit refunded", res, upd)
	}
	if head := e.store.ChainPeek(0); head.T != 2 || head.Theta[0] != 0 {
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

// TestSingleWorkerSparseBitIdentical is the sparse counterpart: at m = 1, SEQ
// and Leashed at S = 1 train sparse logistic regression to the same last bit.
// Both compute the residual with tensor.SpDot on a flat view and apply the
// step with Vector.UpdateSparse; the Leashed side does it through the
// scatter-publish. Single examples of 6 nonzeros keep every change set within
// the change log, so the diff refresh (a recycled buffer brought up to the
// head at the logged components only) runs on every publish but the first,
// and a refresh that missed or misplaced one component would show.
//
// S > 1 is not in the table, and not because of the publish: a segmented
// view computes the residual as GatherSparse + tensor.Dot, whose four partial
// sums are combined in a different order than SpDot's, so the dot products
// — and from there the trajectories — differ in the last bits.
func TestSingleWorkerSparseBitIdentical(t *testing.T) {
	ds := sparse.Generate(sparse.GenConfig{N: 256, Dim: 512, NNZ: 6, Seed: 11, Noise: 0.02})
	run := func(algo Algorithm) []float64 {
		cfg := sparseTestConfig(algo, 1)
		cfg.BatchSize = 1
		cfg.EpsilonFrac = 0
		cfg.MaxUpdates = 400
		res, err := RunSparse(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalUpdates != cfg.MaxUpdates {
			t.Fatalf("%v applied %d updates, want %d", algo, res.TotalUpdates, cfg.MaxUpdates)
		}
		return res.FinalParams
	}
	want, got := run(Seq), run(Leashed)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("LSH/S1: θ[%d] = %v, SEQ has %v", i, got[i], want[i])
		}
	}
}
