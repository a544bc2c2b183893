package sgd

import (
	"fmt"
	"math"
	"testing"
	"time"

	"leashedsgd/internal/data"
	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/rng"
	"leashedsgd/internal/sparse"
)

func sparseTestDataset() *sparse.Dataset {
	return sparse.Generate(sparse.GenConfig{
		N: 256, Dim: 512, NNZ: 12, Seed: 11, Noise: 0.02,
	})
}

func sparseTestConfig(algo Algorithm, workers int) Config {
	return Config{
		Algo:        algo,
		Workers:     workers,
		Eta:         0.5,
		Persistence: PersistenceInf,
		Seed:        1,
		EpsilonFrac: 0.5,
		MaxTime:     15 * time.Second,
		EvalEvery:   10 * time.Millisecond,
	}
}

// referenceSparseGrad computes the minibatch logistic-regression gradient the
// slow, per-example way: residual · x accumulated into a full dense vector.
// This is the golden reference the CSR fast paths must match bit-tight.
func referenceSparseGrad(ds *sparse.Dataset, w []float64, batch []int) []float64 {
	grad := make([]float64, ds.Dim)
	invB := 1 / float64(len(batch))
	for _, i := range batch {
		ex := ds.Examples[i]
		var dot float64
		for k, j := range ex.Idx {
			dot += w[j] * ex.Val[k]
		}
		res := (1/(1+math.Exp(-dot)) - float64(ex.Label)) * invB
		for k, j := range ex.Idx {
			grad[j] += res * ex.Val[k]
		}
	}
	return grad
}

// TestSparseGradientMatchesReference checks the tentpole's correctness
// contract: the batched sparse gradient (B = 1 aliasing fast path, B > 1
// scratch-accumulate path, and the asDense control arm) must match the
// per-example dense reference to 1e-12, computed against both a flat view and
// a segmented multi-chain leased view.
func TestSparseGradientMatchesReference(t *testing.T) {
	ds := sparseTestDataset()
	w := make([]float64, ds.Dim)
	r := rng.New(7)
	for j := range w {
		w[j] = 0.3 * r.NormFloat64()
	}
	batches := map[string][]int{
		"B1": {17},
		"B8": {3, 41, 17, 17, 99, 200, 7, 41}, // duplicates on purpose
	}
	for _, asDense := range []bool{false, true} {
		for bName, batch := range batches {
			for _, viewName := range []string{"flat", "segmented"} {
				name := fmt.Sprintf("asDense=%v/%s/%s", asDense, bName, viewName)
				t.Run(name, func(t *testing.T) {
					prob := newSparseProblem(ds, asDense)
					cfg := sparseTestConfig(Leashed, 1)
					cfg.BatchSize = len(batch)
					rt := newRuntime(cfg.withDefaults(), prob)
					gw := prob.newGradWorker(rt, 0).(*sparseGradWorker)
					gw.sample() // establish buffer invariants
					gw.batch = data.Batch{Indices: batch}

					var pv paramvec.View
					var lease paramvec.Lease
					if viewName == "flat" {
						pv = paramvec.FlatView(w)
					} else {
						store := paramvec.NewStore(ds.Dim, 7)
						store.PublishInit(w)
						defer store.Retire()
						pv = lease.Acquire(store)
						defer lease.Release()
					}
					s := gw.compute(pv, nil)

					got := make([]float64, ds.Dim)
					switch s := s.(type) {
					case denseStep:
						copy(got, s)
					case sparseStep:
						for k, j := range s.idx {
							got[j] += s.val[k]
						}
					}
					want := referenceSparseGrad(ds, w, batch)
					for j := range want {
						if d := math.Abs(got[j] - want[j]); d > 1e-12 {
							t.Fatalf("component %d: got %v want %v (|Δ| = %g)", j, got[j], want[j], d)
						}
					}
				})
			}
		}
	}
}

// TestSparseConvergesAllAlgorithms runs the full algorithm × sharding matrix
// over the sparse problem — the refactor's whole point is that no algorithm
// needed a sparse fork, so every one of them must converge through the
// representation-generic pipeline (scatter-publish on the sharded Leashed
// rows, sparse atomic adds on HOGWILD!, sparse in-place updates elsewhere).
func TestSparseConvergesAllAlgorithms(t *testing.T) {
	ds := sparseTestDataset()
	algos := []Algorithm{Seq, Async, Hogwild, Leashed}
	for _, algo := range algos {
		for _, shards := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", algo, shards), func(t *testing.T) {
				t.Parallel()
				workers := 4
				if algo == Seq {
					workers = 1
				}
				cfg := sparseTestConfig(algo, workers)
				cfg.Shards = shards
				res, err := RunSparse(cfg, ds)
				if err != nil {
					t.Fatal(err)
				}
				if res.Outcome != Converged {
					t.Fatalf("%s shards=%d: outcome = %v (loss %v -> %v)",
						algo, shards, res.Outcome, res.InitialLoss, res.FinalLoss)
				}
			})
		}
	}
}

// TestMaxUpdatesExactSparse extends the budget-exactness guarantee to the
// sparse pipeline: partial-shard publishes must neither lose nor duplicate
// budget units.
func TestMaxUpdatesExactSparse(t *testing.T) {
	ds := sparseTestDataset()
	const budget = 137
	algos := []Algorithm{Seq, Async, Hogwild, Leashed}
	for _, algo := range algos {
		for _, shards := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", algo, shards), func(t *testing.T) {
				t.Parallel()
				workers := 4
				if algo == Seq {
					workers = 1
				}
				cfg := sparseTestConfig(algo, workers)
				cfg.Shards = shards
				cfg.EpsilonFrac = 0
				cfg.MaxUpdates = budget
				cfg.MaxTime = 60 * time.Second
				res, err := RunSparse(cfg, ds)
				if err != nil {
					t.Fatal(err)
				}
				if res.TotalUpdates != budget {
					t.Fatalf("TotalUpdates = %d, want exactly %d", res.TotalUpdates, budget)
				}
			})
		}
	}
}

// TestSparseMatchesGoldenReference trains the same dataset through the
// unified pipeline and through the sparse package's straight-line reference
// trainers (the seed implementations, kept precisely as oracles). Under the
// same update budget all runs must land in the same loss basin — the
// refactored pipeline may not silently change what is being optimized.
func TestSparseMatchesGoldenReference(t *testing.T) {
	ds := sparseTestDataset()
	const budget = 20000
	const eta = 0.1

	golden, err := sparse.Train(sparse.TrainConfig{
		Mode: sparse.ModeSeq, Eta: eta, Updates: budget, Seed: 1,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	goldenHog, err := sparse.Train(sparse.TrainConfig{
		Mode: sparse.ModeHogwild, Workers: 4, Eta: eta, Updates: budget, Seed: 1,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, algo Algorithm, workers, shards int, ref float64) {
		cfg := sparseTestConfig(algo, workers)
		cfg.Eta = eta
		cfg.Shards = shards
		cfg.EpsilonFrac = 0
		cfg.MaxUpdates = budget
		cfg.MaxTime = 60 * time.Second
		res, err := RunSparse(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.FinalLoss-ref) > 0.05 {
			t.Fatalf("%s final loss %v vs golden reference %v (|Δ| > 0.05)",
				name, res.FinalLoss, ref)
		}
	}
	check("SEQ", Seq, 1, 1, golden.FinalLoss)
	check("HOG", Hogwild, 4, 1, goldenHog.FinalLoss)
	check("LSH/shards=8", Leashed, 4, 8, golden.FinalLoss)
}

// TestSparseTouchedComponentsDecompose checks the occupancy counters: a
// sharded sparse Leashed run must report far fewer touched components per
// publish than the chain length (scatter-publish touches only the hit
// components), the per-shard breakdown must sum to the total, and the dense
// control arm must report full occupancy.
func TestSparseTouchedComponentsDecompose(t *testing.T) {
	ds := sparseTestDataset()
	run := func(asDense bool) *Result {
		cfg := sparseTestConfig(Leashed, 4)
		cfg.Shards = 8
		cfg.SparseAsDense = asDense
		cfg.EpsilonFrac = 0
		cfg.MaxUpdates = 400
		cfg.MaxTime = 60 * time.Second
		res, err := RunSparse(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	res := run(false)
	if res.TouchedComponents <= 0 || res.Publishes <= 0 {
		t.Fatalf("no touched/publish accounting: touched=%d publishes=%d",
			res.TouchedComponents, res.Publishes)
	}
	var sum int64
	for _, v := range res.ShardTouched {
		sum += v
	}
	if sum != res.TouchedComponents {
		t.Fatalf("per-shard touched %d != total %d", sum, res.TouchedComponents)
	}
	// B = 1 sparse steps touch ≤ NNZ components per iteration; a dense
	// publish of all 8 chains would touch the full dimension.
	perPublish := float64(res.TouchedComponents) / float64(res.Publishes)
	chainLen := float64(ds.Dim) / 8
	if perPublish >= chainLen/2 {
		t.Fatalf("sparse occupancy %v per publish ≈ chain length %v: scatter-publish not engaged",
			perPublish, chainLen)
	}

	dres := run(true)
	densePer := float64(dres.TouchedComponents) / float64(dres.Publishes)
	if densePer != chainLen {
		t.Fatalf("dense control arm occupancy = %v per publish, want chain length %v", densePer, chainLen)
	}
}
