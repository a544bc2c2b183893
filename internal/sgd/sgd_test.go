package sgd

import (
	"fmt"
	"math"
	"testing"
	"time"

	"leashedsgd/internal/data"
	"leashedsgd/internal/nn"
)

// tinyDataset builds a fast 12×12 10-class synthetic dataset for tests.
func tinyDataset() *data.Dataset {
	cfg := data.SyntheticConfig{
		Samples: 200, H: 12, W: 12, Classes: 10,
		Seed: 5, Noise: 0.03, Shift: 1, Blur: 1.0,
	}
	return data.GenerateSynthetic(cfg)
}

func tinyNet(ds *data.Dataset) *nn.Network {
	return nn.NewMLP(ds.Dim(), []int{24}, ds.Classes)
}

func testConfig(algo Algorithm, workers int) Config {
	return Config{
		Algo:        algo,
		Workers:     workers,
		Eta:         0.1,
		BatchSize:   8,
		Persistence: PersistenceInf,
		Seed:        1,
		EpsilonFrac: 0.5,
		MaxTime:     15 * time.Second,
		EvalEvery:   10 * time.Millisecond,
	}
}

func runOrFatal(t *testing.T, cfg Config, net *nn.Network, ds *data.Dataset) *Result {
	t.Helper()
	res, err := Run(cfg, net, ds)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// --- convergence of every algorithm --------------------------------------

func TestSeqConverges(t *testing.T) {
	ds := tinyDataset()
	res := runOrFatal(t, testConfig(Seq, 1), tinyNet(ds), ds)
	if res.Outcome != Converged {
		t.Fatalf("SEQ outcome = %v (loss %v -> %v)", res.Outcome, res.InitialLoss, res.FinalLoss)
	}
	if res.TimeToTarget <= 0 || res.UpdatesToTarget <= 0 {
		t.Fatalf("missing convergence measurements: %v / %d", res.TimeToTarget, res.UpdatesToTarget)
	}
}

func TestAsyncConverges(t *testing.T) {
	ds := tinyDataset()
	res := runOrFatal(t, testConfig(Async, 4), tinyNet(ds), ds)
	if res.Outcome != Converged {
		t.Fatalf("ASYNC outcome = %v (loss %v -> %v)", res.Outcome, res.InitialLoss, res.FinalLoss)
	}
}

func TestHogwildConverges(t *testing.T) {
	ds := tinyDataset()
	res := runOrFatal(t, testConfig(Hogwild, 4), tinyNet(ds), ds)
	if res.Outcome != Converged {
		t.Fatalf("HOG outcome = %v (loss %v -> %v)", res.Outcome, res.InitialLoss, res.FinalLoss)
	}
}

func TestLeashedConvergesAllPersistences(t *testing.T) {
	ds := tinyDataset()
	for _, tp := range []int{PersistenceInf, 1, 0} {
		cfg := testConfig(Leashed, 4)
		cfg.Persistence = tp
		res := runOrFatal(t, cfg, tinyNet(ds), ds)
		if res.Outcome != Converged {
			t.Fatalf("LSH_ps%d outcome = %v (loss %v -> %v)", tp, res.Outcome, res.InitialLoss, res.FinalLoss)
		}
	}
}

// --- classification of failures ------------------------------------------

func TestCrashDetection(t *testing.T) {
	ds := tinyDataset()
	cfg := testConfig(Seq, 1)
	cfg.Eta = 1e4 // guaranteed numerical blow-up
	cfg.EpsilonFrac = 0.01
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	if res.Outcome != Crashed {
		t.Fatalf("outcome = %v with eta=1e4, want Crashed (final loss %v)", res.Outcome, res.FinalLoss)
	}
}

func TestDivergeOnBudget(t *testing.T) {
	ds := tinyDataset()
	cfg := testConfig(Seq, 1)
	cfg.Eta = 1e-9 // effectively no progress
	cfg.MaxUpdates = 50
	cfg.MaxTime = 5 * time.Second
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	if res.Outcome != Diverged {
		t.Fatalf("outcome = %v, want Diverged", res.Outcome)
	}
}

func TestNoTargetRunsToBudget(t *testing.T) {
	ds := tinyDataset()
	cfg := testConfig(Leashed, 2)
	cfg.EpsilonFrac = 0 // profiling mode
	cfg.MaxUpdates = 200
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	if res.Outcome != Converged {
		t.Fatalf("profiling run outcome = %v", res.Outcome)
	}
	if res.TotalUpdates < 200 {
		t.Fatalf("stopped early: %d updates", res.TotalUpdates)
	}
}

// --- validation -----------------------------------------------------------

func TestRunRejectsBadEta(t *testing.T) {
	ds := tinyDataset()
	cfg := testConfig(Seq, 1)
	cfg.Eta = 0
	if _, err := Run(cfg, tinyNet(ds), ds); err == nil {
		t.Fatal("eta=0 accepted")
	}
}

func TestRunRejectsDimensionMismatch(t *testing.T) {
	ds := tinyDataset()
	net := nn.NewMLP(99, []int{8}, ds.Classes)
	if _, err := Run(testConfig(Seq, 1), net, ds); err == nil {
		t.Fatal("input-dim mismatch accepted")
	}
	net2 := nn.NewMLP(ds.Dim(), []int{8}, 3)
	if _, err := Run(testConfig(Seq, 1), net2, ds); err == nil {
		t.Fatal("class-count mismatch accepted")
	}
}

// --- staleness semantics ---------------------------------------------------

func TestSeqStalenessIsZero(t *testing.T) {
	ds := tinyDataset()
	cfg := testConfig(Seq, 1)
	cfg.EpsilonFrac = 0
	cfg.MaxUpdates = 100
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	if res.Staleness.Count() == 0 {
		t.Fatal("no staleness observations")
	}
	if res.Staleness.Max() != 0 {
		t.Fatalf("sequential staleness max = %d, want 0", res.Staleness.Max())
	}
}

func TestSingleWorkerLeashedStalenessZero(t *testing.T) {
	ds := tinyDataset()
	cfg := testConfig(Leashed, 1)
	cfg.EpsilonFrac = 0
	cfg.MaxUpdates = 100
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	if res.Staleness.Max() != 0 {
		t.Fatalf("1-worker LSH staleness max = %d, want 0", res.Staleness.Max())
	}
	if res.FailedCAS != 0 || res.DroppedUpdates != 0 {
		t.Fatalf("1-worker LSH had contention: failed=%d dropped=%d", res.FailedCAS, res.DroppedUpdates)
	}
}

func TestParallelStalenessPositive(t *testing.T) {
	ds := tinyDataset()
	cfg := testConfig(Hogwild, 4)
	cfg.EpsilonFrac = 0
	cfg.MaxUpdates = 800
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	if res.Staleness.Count() == 0 {
		t.Fatal("no staleness recorded")
	}
	if res.Staleness.Mean() == 0 {
		t.Log("warning: zero mean staleness with 4 workers (possible on few cores)")
	}
}

// TestPersistenceRegulatesStaleness is the paper's Sec. IV-2 claim scaled to
// a unit test: with Tp = 0, the scheduling component τ^s of staleness is 0,
// so LSH_ps0's staleness never exceeds the concurrent-updates component,
// and dropped gradients appear under contention instead.
func TestPersistenceZeroSemantics(t *testing.T) {
	ds := tinyDataset()
	cfg := testConfig(Leashed, 4)
	cfg.Persistence = 0
	cfg.EpsilonFrac = 0
	cfg.MaxUpdates = 800
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	// Every published update under ps0 experienced zero failed CAS, so
	// FailedCAS counts only the aborted attempts: failed ≥ dropped and
	// every failure belongs to a dropped gradient.
	if res.FailedCAS != res.DroppedUpdates {
		t.Fatalf("ps0: failedCAS=%d != dropped=%d (each abort is exactly one failed CAS)",
			res.FailedCAS, res.DroppedUpdates)
	}
}

// --- memory accounting ------------------------------------------------------

// TestAsyncMemoryIs2mPlus1 pins the Fig. 10 baselines' constant memory: ASYNC
// and HOGWILD! each hold m read copies, m gradient buffers and one shared
// vector (HOGWILD!'s atomic array is accounted as one), 2m+1 at any Shards,
// which both ignore.
func TestAsyncMemoryIs2mPlus1(t *testing.T) {
	ds := tinyDataset()
	const m = 4
	for _, algo := range []Algorithm{Async, Hogwild} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", algo, shards), func(t *testing.T) {
				cfg := testConfig(algo, m)
				cfg.Shards = shards
				cfg.EpsilonFrac = 0
				// Time-bounded (not update-bounded) so all m workers are
				// guaranteed to have checked out their buffers before the
				// run ends.
				cfg.MaxTime = 400 * time.Millisecond
				res := runOrFatal(t, cfg, tinyNet(ds), ds)
				if res.PeakLiveVectors != 2*m+1 {
					t.Fatalf("%s peak live vectors = %d, want %d (2m+1)", algo, res.PeakLiveVectors, 2*m+1)
				}
				if res.FinalLiveVectors != 0 {
					t.Fatalf("leak: %d vectors live after run", res.FinalLiveVectors)
				}
			})
		}
	}
}

// TestLeashedMemoryWithinLemma2 asserts the Fig. 10 memory bound derived in
// docs/architecture.md ("Memory: Lemma 2 on this loop") on the one store, at
// one chain and at four, for dense and sparse steps. Per chain the live
// buffers are the head, at most two per worker (one read-protected — the
// leased vector while the gradient is computed, cur while publishing — and
// the private new vector) and the monitor's snapshot read: 2m + 2, which the
// full-vector-equivalent accounting carries over to any S. On top comes the
// full-dimension pool's peak: the m pooled dense gradient accumulators, or
// the sparse run's init vector. Dense: 3m + 2 — Lemma 2's three per worker
// plus the head and the monitor. Sparse: 2m + 3.
func TestLeashedMemoryWithinLemma2(t *testing.T) {
	const m = 4
	// Time-bounded (not update-bounded) so all m workers overlap for long
	// enough to contend.
	for _, tc := range []struct {
		name   string
		sparse bool
		shards int
		bound  int64
	}{
		{"dense/S=1", false, 1, 3*m + 2},
		{"dense/S=4", false, 4, 3*m + 2},
		{"sparse/S=1", true, 1, 2*m + 3},
		{"sparse/S=4", true, 4, 2*m + 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var res *Result
			if tc.sparse {
				cfg := sparseTestConfig(Leashed, m)
				cfg.Shards = tc.shards
				cfg.EpsilonFrac = 0
				cfg.MaxTime = 200 * time.Millisecond
				var err error
				if res, err = RunSparse(cfg, sparseTestDataset()); err != nil {
					t.Fatal(err)
				}
			} else {
				ds := tinyDataset()
				cfg := testConfig(Leashed, m)
				cfg.Shards = tc.shards
				cfg.EpsilonFrac = 0
				cfg.MaxTime = 200 * time.Millisecond
				res = runOrFatal(t, cfg, tinyNet(ds), ds)
			}
			if res.PeakLiveVectors > tc.bound {
				t.Fatalf("peak live vectors = %d exceeds the bound %d", res.PeakLiveVectors, tc.bound)
			}
			if res.FinalLiveVectors != 0 {
				t.Fatalf("leak: %d vectors live after run", res.FinalLiveVectors)
			}
			if res.BufferReuses == 0 {
				t.Fatal("recycling never reused a buffer")
			}
			t.Logf("peak %d of bound %d", res.PeakLiveVectors, tc.bound)
		})
	}
}

// --- misc -------------------------------------------------------------------

func TestMomentumConverges(t *testing.T) {
	ds := tinyDataset()
	cfg := testConfig(Leashed, 2)
	cfg.Momentum = 0.9
	cfg.Eta = 0.02
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	if res.Outcome != Converged {
		t.Fatalf("momentum run outcome = %v", res.Outcome)
	}
}

func TestTimingSamples(t *testing.T) {
	ds := tinyDataset()
	cfg := testConfig(Leashed, 2)
	cfg.SampleTiming = true
	cfg.EpsilonFrac = 0
	cfg.MaxUpdates = 100
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	if res.Tc.Count() == 0 || res.Tu.Count() == 0 {
		t.Fatalf("timing samples missing: Tc=%d Tu=%d", res.Tc.Count(), res.Tu.Count())
	}
	if res.Tc.Mean() <= 0 || res.Tu.Mean() <= 0 {
		t.Fatalf("non-positive mean timings: Tc=%v Tu=%v", res.Tc.Mean(), res.Tu.Mean())
	}
}

func TestTraceIsMonotoneInTime(t *testing.T) {
	ds := tinyDataset()
	res := runOrFatal(t, testConfig(Leashed, 2), tinyNet(ds), ds)
	pts := res.Trace.Points
	if len(pts) < 2 {
		t.Fatalf("trace too short: %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Elapsed < pts[i-1].Elapsed || pts[i].Updates < pts[i-1].Updates {
			t.Fatalf("trace not monotone at %d", i)
		}
	}
}

func TestAlgorithmStrings(t *testing.T) {
	cases := map[Algorithm]string{
		Seq: "SEQ", Async: "ASYNC", Hogwild: "HOG", Leashed: "LSH",
	}
	for a, want := range cases {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), want)
		}
	}
	if Outcome(99).String() == "" || Algorithm(99).String() == "" {
		t.Error("unknown enum renders empty")
	}
}

func TestOutcomeStrings(t *testing.T) {
	if Converged.String() != "Converged" || Diverged.String() != "Diverged" || Crashed.String() != "Crashed" {
		t.Fatal("outcome strings wrong")
	}
}

func TestTimePerUpdate(t *testing.T) {
	r := Result{Elapsed: time.Second, TotalUpdates: 100}
	if r.TimePerUpdate() != 10*time.Millisecond {
		t.Fatalf("TimePerUpdate = %v", r.TimePerUpdate())
	}
	var empty Result
	if empty.TimePerUpdate() != 0 {
		t.Fatal("zero-update TimePerUpdate not 0")
	}
}

func TestTauAdaptiveEtaConverges(t *testing.T) {
	ds := tinyDataset()
	cfg := testConfig(Leashed, 4)
	cfg.TauAdaptiveBeta = 0.5
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	if res.Outcome != Converged {
		t.Fatalf("tau-adaptive run outcome = %v", res.Outcome)
	}
}

func TestAdaptedEtaFormula(t *testing.T) {
	rt := &runCtx{cfg: Config{Eta: 0.1, TauAdaptiveBeta: 1}}
	if got := rt.adaptedEta(0); got != 0.1 {
		t.Fatalf("tau=0: %v", got)
	}
	if got := rt.adaptedEta(1); got != 0.05 {
		t.Fatalf("tau=1: %v", got)
	}
	if got := rt.adaptedEta(9); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("tau=9: %v", got)
	}
	rt.cfg.TauAdaptiveBeta = 0
	if got := rt.adaptedEta(100); got != 0.1 {
		t.Fatalf("disabled: %v", got)
	}
}

func TestMemSamplesRecorded(t *testing.T) {
	ds := tinyDataset()
	cfg := testConfig(Async, 3)
	cfg.EpsilonFrac = 0
	cfg.MaxTime = 400 * time.Millisecond // time-bounded so workers stay busy
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	if len(res.MemSamples) == 0 {
		t.Fatal("no memory samples recorded")
	}
	// While the ASYNC run is live the gauge must read exactly 2m+1.
	var peak int64
	for _, v := range res.MemSamples {
		if v > peak {
			peak = v
		}
	}
	if peak != 7 {
		t.Fatalf("peak sampled live vectors = %d, want 7 (2m+1)", peak)
	}
	if got := res.MeanLiveVectors(); got < 5 {
		t.Fatalf("mean live = %v, expected near 7", got)
	}
}

func TestLeashedMeanMemoryBelowBaselineUnderHighTcTu(t *testing.T) {
	// The Fig. 10 CNN claim scaled down: when gradient computation
	// dominates (large batch -> high Tc/Tu), most Leashed workers hold
	// only their local gradient, so the mean live-buffer count drops
	// below the baselines' constant 2m+1.
	ds := tinyDataset()
	const m = 6
	mk := func(algo Algorithm) *Result {
		cfg := testConfig(algo, m)
		cfg.BatchSize = 64 // expensive gradients: Tc >> Tu
		cfg.EpsilonFrac = 0
		cfg.MaxTime = 600 * time.Millisecond
		return runOrFatal(t, cfg, tinyNet(ds), ds)
	}
	async := mk(Async)
	lsh := mk(Leashed)
	// Startup/shutdown ticks can catch workers before checkout or after
	// release, so allow a small margin below the steady-state 2m+1.
	if got := async.MeanLiveVectors(); got < float64(2*m+1)-2 {
		t.Fatalf("ASYNC mean = %v, want ≈%d", got, 2*m+1)
	}
	if lsh.MeanLiveVectors() >= async.MeanLiveVectors() {
		t.Fatalf("LSH mean live %v not below ASYNC %v in the high-Tc/Tu regime",
			lsh.MeanLiveVectors(), async.MeanLiveVectors())
	}
}
