package sgd

// Stability and stress tests mirroring the paper's S4 oversubscription
// findings at test scale.

import (
	"runtime"
	"testing"
	"time"
)

// TestLeashedStableUnderOversubscription is the S4 claim at unit-test scale:
// with far more workers than cores, the Leashed variants must still converge
// (the paper's baselines begin failing here; we only assert Leashed's side,
// since baseline instability is probabilistic and host-dependent).
func TestLeashedStableUnderOversubscription(t *testing.T) {
	if testing.Short() {
		t.Skip("oversubscription stress skipped in -short mode")
	}
	ds := tinyDataset()
	m := 4 * runtime.GOMAXPROCS(0)
	for _, tp := range []int{0, PersistenceInf} {
		cfg := testConfig(Leashed, m)
		cfg.Persistence = tp
		cfg.MaxTime = 30 * time.Second
		res := runOrFatal(t, cfg, tinyNet(ds), ds)
		if res.Outcome != Converged {
			t.Fatalf("LSH_ps%d with m=%d: %v (loss %v -> %v)",
				tp, m, res.Outcome, res.InitialLoss, res.FinalLoss)
		}
	}
}

// TestLeashedMemoryBoundUnderOversubscription: Lemma 2 must hold even when
// the scheduler interleaves aggressively.
func TestLeashedMemoryBoundUnderOversubscription(t *testing.T) {
	if testing.Short() {
		t.Skip("oversubscription stress skipped in -short mode")
	}
	ds := tinyDataset()
	m := 4 * runtime.GOMAXPROCS(0)
	cfg := testConfig(Leashed, m)
	cfg.Persistence = 1
	cfg.EpsilonFrac = 0
	cfg.MaxUpdates = 2000
	cfg.MaxTime = 30 * time.Second
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	if res.PeakLiveVectors > int64(3*m+1) {
		t.Fatalf("peak %d exceeds 3m+1 = %d under oversubscription",
			res.PeakLiveVectors, 3*m+1)
	}
	if res.FinalLiveVectors != 0 {
		t.Fatalf("leak under oversubscription: %d live", res.FinalLiveVectors)
	}
}

// TestDroppedPlusPublishedAccounting: every gradient either publishes or is
// dropped; the totals must be consistent with the observed counters.
func TestDroppedPlusPublishedAccounting(t *testing.T) {
	ds := tinyDataset()
	cfg := testConfig(Leashed, 4)
	cfg.Persistence = 0
	cfg.EpsilonFrac = 0
	cfg.MaxUpdates = 500
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	// Staleness histogram records exactly one observation per publish.
	if res.Staleness.Count() != res.TotalUpdates {
		t.Fatalf("staleness observations %d != published updates %d",
			res.Staleness.Count(), res.TotalUpdates)
	}
	if res.DroppedUpdates < 0 || res.FailedCAS < res.DroppedUpdates {
		t.Fatalf("counter inconsistency: failed=%d dropped=%d",
			res.FailedCAS, res.DroppedUpdates)
	}
}

// TestEvalSubsetDefault: a monitor tick evaluates every row of a small
// dataset and evalRows distinct rows of a larger one (evaluating all of it
// would make the monitor the bottleneck at scale).
func TestEvalSubsetDefault(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{50, 50}, {10000, 256}} {
		rt := newRuntime(Config{Workers: 2}.withDefaults(), stubProblem{d: 8, n: tc.n})
		rows := rt.evalSubset()
		if len(rows) != tc.want {
			t.Fatalf("%d-row dataset: eval subset has %d rows, want %d", tc.n, len(rows), tc.want)
		}
		seen := map[int]bool{}
		for _, r := range rows {
			if r < 0 || r >= tc.n || seen[r] {
				t.Fatalf("%d-row dataset: eval subset row %d out of range or repeated", tc.n, r)
			}
			seen[r] = true
		}
	}
}

func TestWithDefaults(t *testing.T) {
	cfg := Config{Algo: Seq, Workers: 8}.withDefaults()
	if cfg.Workers != 1 {
		t.Fatalf("SEQ workers = %d, want 1", cfg.Workers)
	}
	if cfg.BatchSize != 16 || cfg.EvalEvery != 25*time.Millisecond {
		t.Fatalf("defaults: batch=%d evalEvery=%v", cfg.BatchSize, cfg.EvalEvery)
	}
	if cfg.MaxTime != 10*time.Second {
		t.Fatalf("no-budget default MaxTime = %v", cfg.MaxTime)
	}
	if b := newRuntime(cfg, stubProblem{d: 8}).hists[0].Bound(); b != 8*1+64 {
		t.Fatalf("staleness bound = %d", b)
	}
}

// TestHogwildInconsistencyObservable: with several workers writing
// component-wise, a mid-update reader can observe a mixed-version vector.
// We verify indirectly: HOG must make progress (convergence tested
// elsewhere) while its update pattern generates no failed-CAS accounting
// (no publish loop exists).
func TestHogwildCountersZero(t *testing.T) {
	ds := tinyDataset()
	cfg := testConfig(Hogwild, 4)
	cfg.EpsilonFrac = 0
	cfg.MaxUpdates = 300
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	if res.FailedCAS != 0 || res.DroppedUpdates != 0 {
		t.Fatalf("HOG reported publish-loop counters: %d/%d", res.FailedCAS, res.DroppedUpdates)
	}
	// A fast worker can release its buffers before a slow worker checks
	// out (startup/shutdown races make a couple of reuses possible), but
	// the steady state holds a constant set: reuses stay far below the
	// thousands a recycling algorithm would show.
	if res.BufferReuses > int64(2*4) {
		t.Fatalf("HOG recycled %d buffers — it must hold an essentially constant set", res.BufferReuses)
	}
}
