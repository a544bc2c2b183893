package sgd

import (
	"fmt"
	"testing"
	"time"

	"leashedsgd/internal/checkpoint"
)

// TestConvergenceMatrix is the ε-convergence smoke matrix: every Algorithm ×
// shard count {1, 4} on the synthetic logreg-scale dataset must reach the
// 50% loss target. For algorithms that ignore the sharding knob (SEQ, ASYNC,
// HOGWILD!) the two columns exercise that Shards is safely accepted; for
// Leashed-SGD they exercise both the single-chain and the sharded hot
// paths.
func TestConvergenceMatrix(t *testing.T) {
	ds := tinyDataset()
	algos := []Algorithm{Seq, Async, Hogwild, Leashed}
	for _, algo := range algos {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", algo, shards), func(t *testing.T) {
				workers := 4
				if algo == Seq {
					workers = 1
				}
				cfg := testConfig(algo, workers)
				cfg.Shards = shards
				res := runOrFatal(t, cfg, tinyNet(ds), ds)
				if res.Outcome != Converged {
					t.Fatalf("%s with %d shards: outcome = %v (loss %v -> %v)",
						algo, shards, res.Outcome, res.InitialLoss, res.FinalLoss)
				}
				if res.FinalLiveVectors != 0 {
					t.Fatalf("leak: %d vectors live after run", res.FinalLiveVectors)
				}
			})
		}
	}
}

func TestShardedLeashedPerShardMetrics(t *testing.T) {
	ds := tinyDataset()
	const shards = 4
	cfg := testConfig(Leashed, 4)
	cfg.Shards = shards
	cfg.EpsilonFrac = 0
	cfg.MaxUpdates = 300
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	if res.Shards != shards {
		t.Fatalf("Result.Shards = %d, want %d", res.Shards, shards)
	}
	if len(res.ShardFailedCAS) != shards || len(res.ShardDropped) != shards ||
		len(res.ShardPublishes) != shards || len(res.ShardStalenessMean) != shards {
		t.Fatalf("per-shard metric lengths: %d/%d/%d/%d, want %d",
			len(res.ShardFailedCAS), len(res.ShardDropped),
			len(res.ShardPublishes), len(res.ShardStalenessMean), shards)
	}
	var pubs, failed, dropped int64
	for s := 0; s < shards; s++ {
		pubs += res.ShardPublishes[s]
		failed += res.ShardFailedCAS[s]
		dropped += res.ShardDropped[s]
		if res.ShardPublishes[s] == 0 {
			t.Fatalf("shard %d never published", s)
		}
	}
	if pubs < res.TotalUpdates {
		t.Fatalf("shard publishes %d < global updates %d", pubs, res.TotalUpdates)
	}
	if res.Publishes != pubs {
		t.Fatalf("Result.Publishes = %d, want per-shard sum %d", res.Publishes, pubs)
	}
	// Totals must roll up into the aggregate counters.
	if res.FailedCAS != failed || res.DroppedUpdates != dropped {
		t.Fatalf("aggregate failed=%d dropped=%d, per-shard sums %d/%d",
			res.FailedCAS, res.DroppedUpdates, failed, dropped)
	}
}

func TestUnshardedResultHasNoShardBreakdown(t *testing.T) {
	ds := tinyDataset()
	cfg := testConfig(Leashed, 2)
	cfg.EpsilonFrac = 0
	cfg.MaxUpdates = 100
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	if res.Shards != 1 {
		t.Fatalf("Result.Shards = %d, want 1", res.Shards)
	}
	if res.ShardFailedCAS != nil || res.ShardPublishes != nil {
		t.Fatal("single-chain run populated per-shard metrics")
	}
	if res.Publishes != res.TotalUpdates {
		t.Fatalf("single-chain Publishes = %d, want TotalUpdates %d", res.Publishes, res.TotalUpdates)
	}
}

// TestStaticRunResultContract pins what a Leashed run reports: at S = 1 no
// per-shard breakdown and one publish per update, at S = 4 a breakdown of
// length 4; and its mid-run checkpoints record the run's S and Tp.
func TestStaticRunResultContract(t *testing.T) {
	for _, s := range []int{1, 4} {
		t.Run(fmt.Sprintf("%s/S=%d", Leashed, s), func(t *testing.T) {
			t.Parallel()
			cfg := ckptConfig(t, Leashed, 2)
			cfg.Shards = s
			res := startCheckpointed(t, cfg, 1)
			if res.Shards != s {
				t.Fatalf("Shards = %d, want %d", res.Shards, s)
			}
			want := s // breakdown length; nil at S = 1
			if s == 1 {
				want = 0
			}
			for i, b := range [][]int64{res.ShardFailedCAS, res.ShardDropped, res.ShardPublishes, res.ShardStaleReads, res.ShardTouched} {
				if len(b) != want || (want == 0) != (b == nil) {
					t.Fatalf("per-shard counter slice %d = %v, want length %d (nil when 0)", i, b, want)
				}
			}
			if len(res.ShardStalenessMean) != want || (want == 0) != (res.ShardStalenessMean == nil) {
				t.Fatalf("ShardStalenessMean = %v, want length %d (nil when 0)", res.ShardStalenessMean, want)
			}
			if s == 1 && res.Publishes != res.TotalUpdates {
				t.Fatalf("S=1 Publishes = %d, want TotalUpdates %d", res.Publishes, res.TotalUpdates)
			}
			meta, _, _, err := checkpoint.LoadNewest(cfg.Checkpoint.Path)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Shards != s || meta.Tp != cfg.Persistence {
				t.Fatalf("checkpoint meta Shards %d Tp %d, want %d and %d", meta.Shards, meta.Tp, s, cfg.Persistence)
			}
		})
	}
}

func TestShardsClampToDimensionAndAlgo(t *testing.T) {
	ds := tinyDataset()
	// Absurd shard count: must clamp to the parameter dimension, not crash.
	cfg := testConfig(Leashed, 2)
	cfg.Shards = 1 << 30
	cfg.EpsilonFrac = 0
	cfg.MaxUpdates = 20
	cfg.MaxTime = 10 * time.Second
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	if d := tinyNet(ds).ParamCount(); res.Shards != d {
		t.Fatalf("Shards = %d, want clamp to d=%d", res.Shards, d)
	}
	// Algorithms without a sharded path ignore Shards: they report one
	// shard, no per-shard breakdown, and one publish per update.
	for _, algo := range []Algorithm{Seq, Async, Hogwild} {
		workers := 2
		if algo == Seq {
			workers = 1
		}
		cfg = testConfig(algo, workers)
		cfg.Shards = 8
		cfg.EpsilonFrac = 0
		cfg.MaxUpdates = 20
		res = runOrFatal(t, cfg, tinyNet(ds), ds)
		if res.Shards != 1 {
			t.Errorf("%s reported Shards = %d, want 1", algo, res.Shards)
		}
		if res.ShardFailedCAS != nil || res.ShardDropped != nil || res.ShardPublishes != nil ||
			res.ShardStalenessMean != nil || res.ShardStaleReads != nil || res.ShardTouched != nil {
			t.Errorf("%s reported a per-shard breakdown: publishes %v, touched %v",
				algo, res.ShardPublishes, res.ShardTouched)
		}
		if res.Publishes != res.TotalUpdates {
			t.Errorf("%s: Publishes = %d, want TotalUpdates = %d", algo, res.Publishes, res.TotalUpdates)
		}
	}
}

func TestShardedSingleWorkerNoContention(t *testing.T) {
	// One worker, many shards: every shard CAS is uncontended, so no
	// failures, no drops, and per-shard staleness identically zero.
	ds := tinyDataset()
	cfg := testConfig(Leashed, 1)
	cfg.Shards = 4
	cfg.EpsilonFrac = 0
	cfg.MaxUpdates = 100
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	if res.FailedCAS != 0 || res.DroppedUpdates != 0 {
		t.Fatalf("1-worker sharded LSH had contention: failed=%d dropped=%d",
			res.FailedCAS, res.DroppedUpdates)
	}
	if res.Staleness.Max() != 0 {
		t.Fatalf("1-worker sharded staleness max = %d, want 0", res.Staleness.Max())
	}
	for s, m := range res.ShardStalenessMean {
		if m != 0 {
			t.Fatalf("shard %d staleness mean = %v, want 0", s, m)
		}
	}
}

// TestShardedPersistenceZeroSemantics extends the ps0 invariant to shards:
// with Tp = 0, every failed shard CAS aborts that shard's segment, so the
// per-shard failed and dropped counts must be equal, shard by shard.
func TestShardedPersistenceZeroSemantics(t *testing.T) {
	ds := tinyDataset()
	cfg := testConfig(Leashed, 4)
	cfg.Shards = 2
	cfg.Persistence = 0
	cfg.EpsilonFrac = 0
	cfg.MaxUpdates = 500
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	for s := range res.ShardFailedCAS {
		if res.ShardFailedCAS[s] != res.ShardDropped[s] {
			t.Fatalf("ps0 shard %d: failed=%d dropped=%d, want equal",
				s, res.ShardFailedCAS[s], res.ShardDropped[s])
		}
	}
}
