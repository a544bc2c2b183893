// Package leashedsgd is a Go implementation of Leashed-SGD — lock-free
// consistent asynchronous shared-memory parallel SGD — together with the
// baselines and the deep-learning substrate it is evaluated against, from:
//
//	K. Bäckström, I. Walulya, M. Papatriantafilou, P. Tsigas.
//	"Consistent Lock-free Parallel Stochastic Gradient Descent for Fast
//	and Stable Convergence", IPDPS 2021 (arXiv:2102.09032).
//
// The package is the public facade: model construction (MLP/CNN bound to a
// flat parameter vector), dataset loading/generation, and the Train entry
// point running any of the algorithms — SEQ, lock-based ASYNC, HOGWILD!, and
// Leashed-SGD with a configurable persistence bound.
//
// Beyond the paper, Config.Shards splits the published parameter vector into
// S contiguous shards, each with its own lock-free latest-pointer chain,
// buffer pool and sequence counter (the chain store internal/paramvec.Store;
// one chain is the paper's single published pointer). Workers then run the LAU-SPC publish loop per
// shard, so two workers conflict only when they publish the same shard
// concurrently and the failed-CAS rate falls ~1/S. Every algorithm runs
// through one store-parameterized worker loop; gradient
// reads lease the published buffers zero-copy at every shard count
// (paramvec.Lease), with each read classified by seqlock validation as
// consistent or mixed-version (Result.ConsistentReads/MixedReads — the
// only sharding trade-off left is ordering, not copying). Shards = 1 (the
// default) is bit-for-bit the paper's single-chain algorithm; SEQ, ASYNC and
// HOGWILD! ignore the knob. Per-shard failed-CAS/dropped/staleness
// breakdowns land in Result.ShardFailedCAS and friends. The test matrix
// covers every Algorithm × shard count {1, 4} (internal/sgd), a store
// conformance suite plus race-detector stress tests over the store at one
// and four chains (internal/paramvec), the exact ~1/S contention law
// (TestShardingReducesCASContention), and a 0 allocs/op guard on the
// leased read path (TestReadPathsAllocateNothing,
// TestBatchedPassesAllocateNothingWarm).
//
// Shards and Persistence are fixed for a run: the store a Leashed run builds
// at start serves it to the end (docs/tuning.md says which (S, Tp) each
// workload uses and why). Config.Validate rejects out-of-range settings
// before a run starts. MaxUpdates
// budgets are exact: workers reserve budget units atomically before an
// update becomes visible, so every bounded run ends with TotalUpdates ==
// MaxUpdates — the deterministic-replay contract.
//
// Quick start:
//
//	model := leashedsgd.MLP(28*28, []int{128, 128, 128}, 10)
//	ds := leashedsgd.SyntheticMNIST(4096, 1)
//	res, err := leashedsgd.Train(leashedsgd.Config{
//	        Algo:        leashedsgd.Leashed,
//	        Workers:     8,
//	        Eta:         0.05,
//	        BatchSize:   32,
//	        Persistence: leashedsgd.PersistenceInf,
//	        EpsilonFrac: 0.5,
//	        MaxTime:     30 * time.Second,
//	}, model, ds)
//
// See docs/architecture.md for the system inventory, docs/tuning.md for
// choosing (S, Tp), and docs/benchmarks.md for the enforced
// performance trajectory.
package leashedsgd

import (
	"fmt"
	"time"

	"leashedsgd/internal/checkpoint"
	"leashedsgd/internal/data"
	"leashedsgd/internal/jsonfloat"
	"leashedsgd/internal/nn"
	"leashedsgd/internal/rng"
	"leashedsgd/internal/sgd"
	"leashedsgd/internal/sparse"
)

// Algorithm selects the parallel SGD variant. See the constants below.
type Algorithm = sgd.Algorithm

// Algorithm values.
const (
	// Seq is sequential SGD.
	Seq = sgd.Seq
	// Async is the lock-based AsyncSGD baseline (paper Algorithm 2).
	Async = sgd.Async
	// Hogwild is the synchronization-free baseline (paper Algorithm 4).
	Hogwild = sgd.Hogwild
	// Leashed is Leashed-SGD (paper Algorithm 3).
	Leashed = sgd.Leashed
)

// PersistenceInf configures an unbounded LAU-SPC retry loop (LSH_ps∞).
const PersistenceInf = sgd.PersistenceInf

// Config controls a training run; see the field documentation in the
// underlying type for the full contract.
type Config = sgd.Config

// Result carries the measurements of a finished run: outcome
// (Converged/Finished/Diverged/Crashed), wall-clock and statistical
// efficiency, the loss trace, staleness distribution, contention counters
// and memory accounting.
type Result = sgd.Result

// Outcome classifies a finished run.
type Outcome = sgd.Outcome

// Outcome values.
const (
	Converged = sgd.Converged
	Finished  = sgd.Finished
	Diverged  = sgd.Diverged
	Crashed   = sgd.Crashed
)

// CheckpointConfig enables mid-run periodic checkpointing on a training
// run; set it as Config.Checkpoint. The monitor writes rotated files
// `Path.NNNNNN` on the Every cadence (Keep retained) with atomic
// temp-file+rename+fsync saves, so a crash at any instant leaves a valid
// lineage on disk. See ResumeTrain for the restart side.
type CheckpointConfig = sgd.CheckpointConfig

// WorkerFault records one worker crash that the supervisor recovered (the
// worker's held locks, leases and reserved budget were rolled back, and the
// slot respawned up to Config.WorkerRestarts times); see Result.WorkerFaults.
type WorkerFault = sgd.WorkerFault

// Dataset is an in-memory labeled image dataset.
type Dataset = data.Dataset

// Model wraps a network architecture whose parameters live in a single flat
// vector — the ParameterVector abstraction the algorithms operate on.
type Model struct {
	net *nn.Network
}

// MLP builds a multilayer perceptron: inputDim → hidden... (Dense+ReLU) →
// classes (Dense). The paper's MLP is MLP(784, []int{128,128,128}, 10).
func MLP(inputDim int, hidden []int, classes int) *Model {
	return &Model{net: nn.NewMLP(inputDim, hidden, classes)}
}

// PaperMLP is the exact Table II architecture (d = 134,794).
func PaperMLP() *Model { return &Model{net: nn.NewPaperMLP()} }

// PaperCNN is the exact Table III architecture (d = 27,354).
func PaperCNN() *Model { return &Model{net: nn.NewPaperCNN()} }

// SmallMLP and SmallCNN are laptop-scale variants of the paper
// architectures, convenient for experimentation on few cores.
func SmallMLP(inputDim, classes int) *Model {
	return &Model{net: nn.NewSmallMLP(inputDim, classes)}
}

// SmallCNN returns the reduced conv→pool→conv→pool→dense architecture for
// 28×28 inputs.
func SmallCNN() *Model { return &Model{net: nn.NewSmallCNN()} }

// network is m's network, nil for a nil Model: sgd rejects a missing network
// like a missing dataset.
func (m *Model) network() *nn.Network {
	if m == nil {
		return nil
	}
	return m.net
}

// ParamCount returns d, the flat parameter dimension.
func (m *Model) ParamCount() int { return m.net.ParamCount() }

// Arch returns a human-readable architecture description.
func (m *Model) Arch() string { return m.net.Arch() }

// SyntheticMNIST generates the MNIST-shaped synthetic dataset used when the
// real files are unavailable (28×28, 10 balanced classes, deterministic per
// seed). See docs/architecture.md, "Datasets", for the substitution
// rationale.
func SyntheticMNIST(samples int, seed uint64) *Dataset {
	return data.GenerateSynthetic(data.DefaultSyntheticConfig(samples, seed))
}

// LoadMNIST loads the real MNIST training set (IDX files) from dir.
func LoadMNIST(dir string) (*Dataset, error) {
	return data.LoadMNISTDir(dir)
}

// LoadOrSynthesizeMNIST returns real MNIST from dir when present, otherwise
// a synthetic dataset of the given size; the bool reports which.
func LoadOrSynthesizeMNIST(dir string, samples int, seed uint64) (*Dataset, bool) {
	return data.LoadOrGenerate(dir, samples, seed)
}

// SparseDataset is a sparse binary logistic-regression dataset — the
// HOGWILD!-regime workload (d large, a handful of non-zeros per example) the
// representation-generic pipeline trains with first-class sparse gradients.
type SparseDataset = sparse.Dataset

// SyntheticSparse generates a sparse logistic-regression dataset with a
// planted ground-truth weight vector, n examples over dim features with nnz
// non-zeros each. Deterministic per seed.
func SyntheticSparse(n, dim, nnz int, seed uint64) *SparseDataset {
	return sparse.Generate(sparse.GenConfig{N: n, Dim: dim, NNZ: nnz, Seed: seed, Noise: 0.02})
}

// TrainSparse runs one training run of the configured algorithm over a sparse
// dataset. Every algorithm of the dense path is available; gradients flow
// through the pipeline in sparse index/value form, so the Leashed family
// scatter-publishes only the chains each step touches and HOGWILD! adds only
// the step's nonzeros. BatchSize defaults to 1 (the sparse regime's
// natural step granularity); Momentum is rejected — a dense velocity would
// densify every step.
func TrainSparse(cfg Config, ds *SparseDataset) (*Result, error) {
	return sgd.RunSparse(cfg, ds)
}

// StartTrainSparse is TrainSparse split in two, exactly as StartTrain is to
// Train: the returned handle serves live parameter reads mid-run.
func StartTrainSparse(cfg Config, ds *SparseDataset) (*Training, error) {
	return sgd.StartSparse(cfg, ds)
}

// SparseLoss evaluates the mean logistic loss of dense weights w on a sparse
// dataset (typically Result.FinalParams after TrainSparse).
func SparseLoss(w []float64, ds *SparseDataset) float64 { return sparse.Loss(w, ds) }

// Train runs one training run of the configured algorithm on the model and
// dataset. It blocks until convergence, crash, or budget exhaustion, and
// returns the full measurement record.
func Train(cfg Config, m *Model, ds *Dataset) (*Result, error) {
	return sgd.Run(cfg, m.network(), ds)
}

// Training is a handle on a live, in-progress run started by StartTrain:
// Wait blocks for the Result, Stop ends the run early, Done exposes the
// completion channel, and ReadParams serves zero-copy leased reads of the
// live parameters — the hook the online inference tier (internal/serve,
// `leashed serve`) is built on.
type Training = sgd.Running

// StartTrain launches a training run and returns immediately with a live
// handle. It is Train split in two: StartTrain(...).Wait() is equivalent to
// Train(...), but the handle's parameters can be read — and predictions
// served — while the workers are still publishing.
func StartTrain(cfg Config, m *Model, ds *Dataset) (*Training, error) {
	return sgd.Start(cfg, m.network(), ds)
}

// ResumeTrain restarts a killed or crashed run from its newest valid
// checkpoint under cfg.Checkpoint.Path, skipping files that fail validation
// (torn by a crash mid-save, corrupted on disk). The parameters are restored
// from the checkpoint, cfg.MaxUpdates is reduced by the updates already
// applied — so the resumed lineage completes the exact original budget. The
// continuation runs at cfg's (Shards, Persistence). The run continues
// rotating checkpoints into the same lineage.
func ResumeTrain(cfg Config, m *Model, ds *Dataset) (*Training, error) {
	return sgd.Resume(cfg, m.network(), ds)
}

// Evaluate computes the mean cross-entropy loss and classification accuracy
// of the given flat parameters on a dataset. Parameters typically come from
// a prior Train via Result snapshots, or from custom training loops built on
// the model; for end-to-end runs prefer Train, which evaluates internally.
func (m *Model) Evaluate(params []float64, ds *Dataset) (loss, accuracy float64, err error) {
	if len(params) != m.net.ParamCount() {
		return 0, 0, fmt.Errorf("leashedsgd: params length %d, want %d", len(params), m.net.ParamCount())
	}
	loss, accuracy = m.net.Evaluate(params, ds, nil, m.net.NewWorkspace())
	return loss, accuracy, nil
}

// InitParams returns a freshly initialized flat parameter vector
// (θ ← N(0, 0.01), the paper's rand_init) for use with Evaluate or custom
// loops.
func (m *Model) InitParams(seed uint64) []float64 {
	p := make([]float64, m.net.ParamCount())
	m.net.Init(p, rng.New(seed), nn.DefaultSigma)
	return p
}

// SaveCheckpoint persists a trained model (the result's final parameters
// plus provenance metadata) to path; see LoadCheckpoint.
func SaveCheckpoint(path string, m *Model, res *Result) error {
	if m == nil || res == nil {
		return fmt.Errorf("leashedsgd: nil model or result")
	}
	if len(res.FinalParams) != m.net.ParamCount() {
		return fmt.Errorf("leashedsgd: result params %d do not match model d=%d",
			len(res.FinalParams), m.net.ParamCount())
	}
	return checkpoint.Save(path, checkpoint.Meta{
		Arch:      m.net.Arch(),
		Dim:       m.net.ParamCount(),
		FinalLoss: jsonfloat.Float(res.FinalLoss),
		Updates:   res.TotalUpdates,
		SavedAt:   time.Now(),
	}, res.FinalParams)
}

// LoadCheckpoint loads parameters saved by SaveCheckpoint, verifying they
// match the model's dimension.
func LoadCheckpoint(path string, m *Model) ([]float64, error) {
	meta, params, err := checkpoint.Load(path)
	if err != nil {
		return nil, err
	}
	if meta.Dim != m.net.ParamCount() {
		return nil, fmt.Errorf("leashedsgd: checkpoint d=%d does not match model d=%d (%s)",
			meta.Dim, m.net.ParamCount(), meta.Arch)
	}
	return params, nil
}
