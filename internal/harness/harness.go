// Package harness runs the paper's experiment matrix (Table I, steps S1-S5)
// over the algorithm family and produces the per-figure data series. Every
// figure in the evaluation section has a function here that regenerates its
// rows; cmd/leashed (`leashed run`) calls into this package.
package harness

import (
	"fmt"
	"math"
	"time"

	"leashedsgd/internal/data"
	"leashedsgd/internal/nn"
	"leashedsgd/internal/sgd"
)

// Arch selects the model architecture for an experiment.
type Arch int

const (
	// TinyMLP is a 12×12-input MLP for unit tests of the harness itself.
	TinyMLP Arch = iota
	// SmallMLP is a laptop-scale 784→32→10 MLP (same input shape as the
	// paper, reduced width so runs finish in seconds).
	SmallMLP
	// SmallCNN is the laptop-scale conv→pool→conv→pool→dense stack.
	SmallCNN
	// PaperMLP is the exact Table II architecture (d = 134,794).
	PaperMLP
	// PaperCNN is the exact Table III architecture (d = 27,354).
	PaperCNN
)

// String names the architecture as used in tables.
func (a Arch) String() string {
	switch a {
	case TinyMLP:
		return "tiny-mlp"
	case SmallMLP:
		return "mlp"
	case SmallCNN:
		return "cnn"
	case PaperMLP:
		return "paper-mlp"
	case PaperCNN:
		return "paper-cnn"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// build returns a fresh network and a compatible dataset for the arch.
func (a Arch) build(samples int, seed uint64) (*nn.Network, *data.Dataset) {
	switch a {
	case TinyMLP:
		cfg := data.SyntheticConfig{Samples: samples, H: 12, W: 12, Classes: 10,
			Seed: seed, Noise: 0.03, Shift: 1, Blur: 1.0}
		ds := data.GenerateSynthetic(cfg)
		return nn.NewMLP(ds.Dim(), []int{24}, ds.Classes), ds
	case SmallMLP:
		ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(samples, seed))
		return nn.NewSmallMLP(ds.Dim(), ds.Classes), ds
	case SmallCNN:
		ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(samples, seed))
		return nn.NewSmallCNN(), ds
	case PaperMLP:
		ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(samples, seed))
		return nn.NewPaperMLP(), ds
	case PaperCNN:
		ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(samples, seed))
		return nn.NewPaperCNN(), ds
	default:
		panic("harness: unknown arch")
	}
}

// Scale bundles the workload parameters of an experiment run.
type Scale struct {
	Arch       Arch
	Samples    int
	BatchSize  int
	Trials     int // independent repetitions per cell (paper: 11)
	Eta        float64
	MaxTime    time.Duration
	MaxUpdates int64
	Seed       uint64
	EvalEvery  time.Duration
}

// Small returns the laptop-scale defaults the CLI uses without flags: runs
// finish in seconds while preserving the paper's qualitative shape.
func Small() Scale {
	return Scale{
		Arch:      SmallMLP,
		Samples:   512,
		BatchSize: 16,
		Trials:    3,
		Eta:       0.05,
		MaxTime:   8 * time.Second,
		Seed:      1,
		EvalEvery: 10 * time.Millisecond,
	}
}

// Paper returns the full paper-scale settings (Table I): batch 512, η=0.005,
// MNIST-sized dataset, 11 trials. Expect hours of wall-clock on a laptop.
func Paper() Scale {
	return Scale{
		Arch:      PaperMLP,
		Samples:   60000,
		BatchSize: 512,
		Trials:    11,
		Eta:       0.005,
		MaxTime:   120 * time.Second,
		Seed:      1,
		EvalEvery: 100 * time.Millisecond,
	}
}

// AlgoSpec is one algorithm configuration under test.
type AlgoSpec struct {
	Name        string
	Algo        sgd.Algorithm
	Persistence int
}

// StandardAlgos returns the five configurations every figure compares:
// ASYNC, HOG, LSH_ps∞, LSH_ps1, LSH_ps0 (the paper's legend).
func StandardAlgos() []AlgoSpec {
	return []AlgoSpec{
		{Name: "ASYNC", Algo: sgd.Async, Persistence: 0},
		{Name: "HOG", Algo: sgd.Hogwild, Persistence: 0},
		{Name: "LSH_psInf", Algo: sgd.Leashed, Persistence: sgd.PersistenceInf},
		{Name: "LSH_ps1", Algo: sgd.Leashed, Persistence: 1},
		{Name: "LSH_ps0", Algo: sgd.Leashed, Persistence: 0},
	}
}

// AllAlgos is StandardAlgos plus SEQ (Fig. 3 includes it).
func AllAlgos() []AlgoSpec {
	return append([]AlgoSpec{{Name: "SEQ", Algo: sgd.Seq}}, StandardAlgos()...)
}

// Cell aggregates the repeated trials of one (algorithm, configuration)
// point — exactly the data behind one box in the paper's box plots.
type Cell struct {
	Spec    AlgoSpec
	Workers int
	Epsilon float64

	TimesSec  []float64 // wall-clock seconds to ε; NaN when not reached
	Updates   []float64 // statistical efficiency: updates to ε; NaN when not reached
	PerUpdMs  []float64 // computational efficiency: mean ms per update
	Diverged  int
	Crashed   int
	Converged int

	Results []*sgd.Result // full per-trial measurements
}

// RunCell executes Trials independent runs of one configuration.
func RunCell(sc Scale, spec AlgoSpec, workers int, epsilon, eta float64, sampleTiming bool) Cell {
	cell := Cell{Spec: spec, Workers: workers, Epsilon: epsilon}
	for trial := 0; trial < sc.Trials; trial++ {
		net, ds := sc.Arch.build(sc.Samples, sc.Seed)
		cfg := sgd.Config{
			Algo:         spec.Algo,
			Workers:      workers,
			Eta:          eta,
			BatchSize:    sc.BatchSize,
			Persistence:  spec.Persistence,
			Seed:         sc.Seed + uint64(trial)*7919,
			EpsilonFrac:  epsilon,
			MaxTime:      sc.MaxTime,
			MaxUpdates:   sc.MaxUpdates,
			EvalEvery:    sc.EvalEvery,
			SampleTiming: sampleTiming,
		}
		res, err := sgd.Run(cfg, net, ds)
		if err != nil {
			panic(fmt.Sprintf("harness: run failed: %v", err))
		}
		cell.Results = append(cell.Results, res)
		switch res.Outcome {
		case sgd.Converged:
			cell.Converged++
			cell.TimesSec = append(cell.TimesSec, res.TimeToTarget.Seconds())
			cell.Updates = append(cell.Updates, float64(res.UpdatesToTarget))
		case sgd.Diverged:
			cell.Diverged++
			cell.TimesSec = append(cell.TimesSec, math.NaN())
			cell.Updates = append(cell.Updates, math.NaN())
		case sgd.Crashed:
			cell.Crashed++
			cell.TimesSec = append(cell.TimesSec, math.NaN())
			cell.Updates = append(cell.Updates, math.NaN())
		}
		cell.PerUpdMs = append(cell.PerUpdMs,
			float64(res.TimePerUpdate())/float64(time.Millisecond))
	}
	return cell
}

// TimeToEpsilon extracts, from an already-run cell, the per-trial times to a
// LOOSER epsilon than the cell's target by walking the loss traces — the
// paper's Fig. 4 "time to ε ∈ {75,50,25,10}%" reuses runs this way.
func (c *Cell) TimeToEpsilon(eps float64) []float64 {
	out := make([]float64, 0, len(c.Results))
	for _, res := range c.Results {
		if res.Outcome == sgd.Crashed {
			out = append(out, math.NaN())
			continue
		}
		p := res.Trace.FirstBelow(eps * res.InitialLoss)
		if p == nil {
			out = append(out, math.NaN())
		} else {
			out = append(out, p.Elapsed.Seconds())
		}
	}
	return out
}
