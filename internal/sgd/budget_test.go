package sgd

import (
	"fmt"
	"testing"
	"time"
)

// TestMaxUpdatesExact enforces the budget-exactness guarantee across the
// whole algorithm × sharding matrix: a MaxUpdates-bounded run must end with
// TotalUpdates == MaxUpdates exactly — no overshoot from m workers racing
// past the budget check (the pre-fix behaviour overshot by up to m−1), no
// undershoot from abandoned in-flight reservations.
func TestMaxUpdatesExact(t *testing.T) {
	ds := tinyDataset()
	const budget = 137 // odd on purpose: not a multiple of any worker count
	algos := []Algorithm{Seq, Async, Hogwild, Leashed}
	for _, algo := range algos {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", algo, shards), func(t *testing.T) {
				t.Parallel()
				workers := 4
				if algo == Seq {
					workers = 1
				}
				cfg := testConfig(algo, workers)
				cfg.Shards = shards
				cfg.EpsilonFrac = 0
				cfg.MaxUpdates = budget
				cfg.MaxTime = 60 * time.Second
				res := runOrFatal(t, cfg, tinyNet(ds), ds)
				if res.TotalUpdates != budget {
					t.Fatalf("%s shards=%d: TotalUpdates = %d, want exactly %d",
						algo, shards, res.TotalUpdates, budget)
				}
			})
		}
	}
}

// TestMaxUpdatesExactUnderDrops exercises the refund path: with Tp = 0 and
// real contention every failed CAS drops a gradient whose budget reservation
// must be returned, or the run would finish short of the budget.
func TestMaxUpdatesExactUnderDrops(t *testing.T) {
	ds := tinyDataset()
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := testConfig(Leashed, 8)
			cfg.Persistence = 0
			cfg.Shards = shards
			cfg.EpsilonFrac = 0
			cfg.MaxUpdates = 300
			cfg.MaxTime = 60 * time.Second
			res := runOrFatal(t, cfg, tinyNet(ds), ds)
			if res.TotalUpdates != 300 {
				t.Fatalf("TotalUpdates = %d, want exactly 300 (dropped=%d)",
					res.TotalUpdates, res.DroppedUpdates)
			}
		})
	}
}

// TestBudgetEndsPromptly: the worker that applies the final budgeted update
// wakes the monitor immediately, so a bounded run must not linger for extra
// EvalEvery ticks after the budget is spent.
func TestBudgetEndsPromptly(t *testing.T) {
	ds := tinyDataset()
	cfg := testConfig(Leashed, 2)
	cfg.EpsilonFrac = 0
	cfg.MaxUpdates = 50
	cfg.EvalEvery = 2 * time.Second // one tick would dwarf the run
	cfg.MaxTime = 60 * time.Second
	start := time.Now()
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	if elapsed := time.Since(start); elapsed > cfg.EvalEvery {
		t.Fatalf("bounded run took %v, monitor did not wake on completion", elapsed)
	}
	if res.TotalUpdates != 50 {
		t.Fatalf("TotalUpdates = %d, want 50", res.TotalUpdates)
	}
}
