package leashedsgd_test

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"leashedsgd"
	"leashedsgd/internal/paramvec"
)

func TestPublicAPITrainLeashed(t *testing.T) {
	model := leashedsgd.SmallMLP(28*28, 10)
	ds := leashedsgd.SyntheticMNIST(256, 1)
	res, err := leashedsgd.Train(leashedsgd.Config{
		Algo:        leashedsgd.Leashed,
		Workers:     2,
		Eta:         0.05,
		BatchSize:   16,
		Persistence: leashedsgd.PersistenceInf,
		EpsilonFrac: 0.5,
		MaxTime:     20 * time.Second,
	}, model, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != leashedsgd.Converged {
		t.Fatalf("outcome = %v, loss %v -> %v", res.Outcome, res.InitialLoss, res.FinalLoss)
	}
}

func TestPublicAPIValidation(t *testing.T) {
	if _, err := leashedsgd.Train(leashedsgd.Config{Eta: 0.1}, nil, leashedsgd.SyntheticMNIST(10, 1)); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := leashedsgd.Train(leashedsgd.Config{Eta: 0.1}, leashedsgd.SmallMLP(784, 10), nil); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := leashedsgd.StartTrain(leashedsgd.Config{Eta: 0.1}, nil, leashedsgd.SyntheticMNIST(10, 1)); err == nil {
		t.Fatal("StartTrain: nil model accepted")
	}
	if _, err := leashedsgd.StartTrain(leashedsgd.Config{Eta: 0.1}, leashedsgd.SmallMLP(784, 10), nil); err == nil {
		t.Fatal("StartTrain: nil dataset accepted")
	}
}

// StartTrain(...).Wait() is Train in two steps, with live leased parameter
// reads available in between.
func TestPublicAPIStartTrainLiveReads(t *testing.T) {
	model := leashedsgd.SmallMLP(28*28, 10)
	ds := leashedsgd.SyntheticMNIST(256, 1)
	run, err := leashedsgd.StartTrain(leashedsgd.Config{
		Algo:        leashedsgd.Leashed,
		Workers:     2,
		Eta:         0.05,
		BatchSize:   16,
		Persistence: leashedsgd.PersistenceInf,
		EpsilonFrac: 0, // run to budget so the live window stays open
		MaxTime:     300 * time.Millisecond,
	}, model, ds)
	if err != nil {
		t.Fatal(err)
	}
	if run.Dim() != model.ParamCount() {
		t.Fatalf("Dim = %d, want %d", run.Dim(), model.ParamCount())
	}
	reads := 0
	for {
		meta := run.ReadParams(nil, nil, func(pv paramvec.View) {
			if pv.Len() != model.ParamCount() {
				t.Errorf("live view length %d, want %d", pv.Len(), model.ParamCount())
			}
		})
		reads++
		if meta.Final {
			break
		}
	}
	res := run.Wait()
	if res == nil || reads == 0 {
		t.Fatalf("res=%v reads=%d", res, reads)
	}
	if math.IsNaN(res.FinalLoss) {
		t.Fatalf("final loss NaN")
	}
}

func TestPaperArchitectures(t *testing.T) {
	if got := leashedsgd.PaperMLP().ParamCount(); got != 134794 {
		t.Fatalf("PaperMLP d = %d", got)
	}
	if got := leashedsgd.PaperCNN().ParamCount(); got != 27354 {
		t.Fatalf("PaperCNN d = %d", got)
	}
	if !strings.Contains(leashedsgd.PaperCNN().Arch(), "Conv2D") {
		t.Fatal("Arch() missing layer names")
	}
}

func TestEvaluateAndInitParams(t *testing.T) {
	model := leashedsgd.SmallMLP(28*28, 10)
	ds := leashedsgd.SyntheticMNIST(64, 2)
	params := model.InitParams(3)
	if len(params) != model.ParamCount() {
		t.Fatalf("InitParams length %d", len(params))
	}
	loss, acc, err := model.Evaluate(params, ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-math.Log(10)) > 0.3 {
		t.Fatalf("fresh-init loss = %v, want ≈ ln 10", loss)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy = %v", acc)
	}
	if _, _, err := model.Evaluate(params[:5], ds); err == nil {
		t.Fatal("short params accepted")
	}
}

func TestLoadOrSynthesizeFallsBack(t *testing.T) {
	ds, real := leashedsgd.LoadOrSynthesizeMNIST(t.TempDir(), 32, 1)
	if real {
		t.Fatal("claimed real MNIST in empty dir")
	}
	if ds.Len() != 32 {
		t.Fatalf("samples = %d", ds.Len())
	}
}

func TestCheckpointRoundTripViaFacade(t *testing.T) {
	model := leashedsgd.SmallMLP(28*28, 10)
	ds := leashedsgd.SyntheticMNIST(128, 3)
	res, err := leashedsgd.Train(leashedsgd.Config{
		Algo:        leashedsgd.Leashed,
		Workers:     2,
		Eta:         0.05,
		BatchSize:   16,
		Persistence: leashedsgd.PersistenceInf,
		EpsilonFrac: 0.5,
		MaxTime:     20 * time.Second,
	}, model, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalParams) != model.ParamCount() {
		t.Fatalf("FinalParams length = %d", len(res.FinalParams))
	}
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := leashedsgd.SaveCheckpoint(path, model, res); err != nil {
		t.Fatal(err)
	}
	params, err := leashedsgd.LoadCheckpoint(path, model)
	if err != nil {
		t.Fatal(err)
	}
	// The reloaded parameters must reproduce the recorded final loss on
	// the eval subset's superset (full dataset), within eval noise.
	loss, _, err := model.Evaluate(params, ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(loss) || loss > res.InitialLoss {
		t.Fatalf("restored model loss %v vs initial %v", loss, res.InitialLoss)
	}
	// Dimension check: loading into a mismatched model must fail.
	other := leashedsgd.SmallMLP(28*28, 5)
	if _, err := leashedsgd.LoadCheckpoint(path, other); err == nil {
		t.Fatal("dimension mismatch not caught")
	}
}

func TestTauAdaptiveViaFacade(t *testing.T) {
	model := leashedsgd.SmallMLP(28*28, 10)
	ds := leashedsgd.SyntheticMNIST(256, 2)
	res, err := leashedsgd.Train(leashedsgd.Config{
		Algo:            leashedsgd.Hogwild,
		Workers:         4,
		Eta:             0.05,
		BatchSize:       16,
		EpsilonFrac:     0.5,
		MaxTime:         20 * time.Second,
		TauAdaptiveBeta: 0.3,
	}, model, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != leashedsgd.Converged {
		t.Fatalf("tau-adaptive HOG outcome = %v", res.Outcome)
	}
}
