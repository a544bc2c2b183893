package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"leashedsgd"
	"leashedsgd/internal/jsonfloat"
)

// trainOpts holds `leashed train`'s parsed flags: the run's Config, and the
// flags that pick its algorithm, model, data and output.
type trainOpts struct {
	cfg                     leashedsgd.Config
	algo, arch, mnist, ckpt string
	samples, dim, nnz       int
	sparse, resume, jsonOut bool
}

// trainFlags declares `leashed train`'s flags, parsing into o.
func trainFlags(o *trainOpts) *flag.FlagSet {
	c := &o.cfg
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	fs.StringVar(&o.algo, "algo", "LSH", "SEQ, ASYNC, HOG, LSH")
	fs.StringVar(&o.arch, "arch", "mlp", "mlp, cnn, paper-mlp, paper-cnn")
	fs.IntVar(&c.Workers, "workers", runtime.GOMAXPROCS(0), "worker count m")
	fs.Float64Var(&c.Eta, "eta", 0.05, "step size")
	fs.IntVar(&c.BatchSize, "batch", 0, "mini-batch size (0 = 16, or 1 with -sparse)")
	fs.IntVar(&c.Persistence, "persistence", leashedsgd.PersistenceInf, "LSH persistence bound Tp (-1 = inf)")
	fs.IntVar(&c.Shards, "shards", 1, "published-vector shard count (LSH only; 1 = paper's single chain)")
	fs.Float64Var(&c.EpsilonFrac, "epsilon", 0.25, "convergence target as fraction of initial loss (0 = run to budget)")
	fs.DurationVar(&c.MaxTime, "budget", 60*time.Second, "time budget")
	fs.IntVar(&o.samples, "samples", 1024, "dataset size")
	fs.Uint64Var(&c.Seed, "seed", 1, "seed")
	fs.Float64Var(&c.Momentum, "momentum", 0, "heavy-ball momentum (extension)")
	fs.Float64Var(&c.TauAdaptiveBeta, "tau-beta", 0, "staleness-adaptive step-size beta (extension)")
	fs.StringVar(&o.mnist, "mnist", "", "real MNIST IDX directory (optional)")
	fs.BoolVar(&o.sparse, "sparse", false, "train sparse logistic regression instead of the dense net (-dim/-nnz)")
	fs.IntVar(&o.dim, "dim", 131072, "sparse feature dimension (with -sparse)")
	fs.IntVar(&o.nnz, "nnz", 64, "non-zeros per sparse example (with -sparse)")
	fs.StringVar(&o.ckpt, "ckpt", "", "save trained model checkpoint to this path")
	fs.DurationVar(&c.Checkpoint.Every, "ckpt-every", 0, "also checkpoint mid-run on this cadence (rotated FILE.NNNNNN beside -ckpt)")
	fs.IntVar(&c.Checkpoint.Keep, "ckpt-keep", 0, "rotated mid-run checkpoints to retain (0 = default)")
	fs.BoolVar(&o.resume, "resume", false, "resume from the newest valid rotated checkpoint beside -ckpt")
	fs.Int64Var(&c.MaxUpdates, "updates", 0, "update budget (0 = unbounded; with -resume, the ORIGINAL budget)")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the result summary as JSON")
	return fs
}

var (
	algoNames = map[string]leashedsgd.Algorithm{
		"SEQ": leashedsgd.Seq, "ASYNC": leashedsgd.Async,
		"HOG": leashedsgd.Hogwild, "LSH": leashedsgd.Leashed,
	}
	archModels = map[string]func() *leashedsgd.Model{
		"mlp": func() *leashedsgd.Model { return leashedsgd.SmallMLP(28*28, 10) },
		"cnn": leashedsgd.SmallCNN, "paper-mlp": leashedsgd.PaperMLP, "paper-cnn": leashedsgd.PaperCNN,
	}
)

// algoList names the accepted -algo spellings, sorted.
func algoList() string {
	return strings.Join(slices.Sorted(maps.Keys(algoNames)), ", ")
}

// parseTrain parses `leashed train`'s arguments and validates the run's
// Config before any dataset is generated.
func parseTrain(args []string) (*trainOpts, error) {
	o := &trainOpts{}
	if err := trainFlags(o).Parse(args); err != nil {
		return nil, err
	}
	cfg := &o.cfg
	var ok bool
	if cfg.Algo, ok = algoNames[o.algo]; !ok {
		return nil, fmt.Errorf("unknown algorithm %q (valid algorithms: %s)", o.algo, algoList())
	}
	if _, ok := archModels[o.arch]; !ok && !o.sparse {
		return nil, fmt.Errorf("unknown arch %q", o.arch)
	}
	if o.sparse && o.ckpt != "" {
		return nil, fmt.Errorf("-ckpt: not supported for -sparse runs")
	}
	if (cfg.Checkpoint.Every > 0 || o.resume) && o.ckpt == "" {
		return nil, fmt.Errorf("-ckpt-every/-resume need -ckpt FILE as the checkpoint base path")
	}
	cfg.Checkpoint.Path = o.ckpt
	return o, cfg.Validate()
}

// runTrain implements `leashed train`: one training run with explicit
// hyper-parameters, optional JSON result output and checkpoint saving —
// the single-run counterpart to the experiment steps.
func runTrain(args []string) {
	o, err := parseTrain(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := o.cfg

	var model *leashedsgd.Model
	var res *leashedsgd.Result
	archLabel := o.arch
	real := false
	if o.sparse {
		// Sparse logistic regression through the same pipeline.
		sds := leashedsgd.SyntheticSparse(o.samples, o.dim, o.nnz, cfg.Seed)
		archLabel = fmt.Sprintf("sparse-logreg(d=%d,nnz=%d)", o.dim, o.nnz)
		res, err = leashedsgd.TrainSparse(cfg, sds)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		model = archModels[o.arch]()
		var ds *leashedsgd.Dataset
		ds, real = leashedsgd.LoadOrSynthesizeMNIST(o.mnist, o.samples, cfg.Seed)
		archLabel = model.Arch()
		if o.resume {
			var tr *leashedsgd.Training
			tr, err = leashedsgd.ResumeTrain(cfg, model, ds)
			if err == nil {
				res = tr.Wait()
			}
		} else {
			res, err = leashedsgd.Train(cfg, model, ds)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if o.ckpt != "" {
		if err := leashedsgd.SaveCheckpoint(o.ckpt, model, res); err != nil {
			fmt.Fprintln(os.Stderr, "checkpoint:", err)
			os.Exit(1)
		}
	}

	if o.jsonOut {
		if err := writeResultJSON(os.Stdout, resultJSON(cfg, archLabel, real, res)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("%s on %s (m=%d): %s\n", cfg.Algo, archLabel, cfg.Workers, res.Outcome)
	fmt.Printf("loss %.4f -> %.4f", res.InitialLoss, res.FinalLoss)
	if res.Outcome == leashedsgd.Converged && cfg.EpsilonFrac > 0 {
		fmt.Printf(" in %v (%d updates)", res.TimeToTarget.Round(time.Millisecond), res.UpdatesToTarget)
	}
	fmt.Printf("\nstaleness mean %.2f max %d; %.3f ms/update\n",
		res.Staleness.Mean(), res.Staleness.Max(),
		float64(res.TimePerUpdate())/float64(time.Millisecond))
	if res.TouchedComponents > 0 && res.Publishes > 0 {
		fmt.Printf("occupancy %.1f components/publish (%d touched over %d publishes)\n",
			float64(res.TouchedComponents)/float64(res.Publishes),
			res.TouchedComponents, res.Publishes)
	}
	if res.ResumedFrom > 0 {
		fmt.Printf("resumed from checkpoint at update %d (%d applied this leg)\n",
			res.ResumedFrom, res.TotalUpdates)
	}
	if n := len(res.WorkerFaults); n > 0 {
		fmt.Printf("worker faults recovered: %d (%d respawns)\n", n, res.WorkerRestarts)
	}
	if res.Checkpoints > 0 || res.CheckpointErrors > 0 {
		fmt.Printf("mid-run checkpoints: %d written, %d failed\n",
			res.Checkpoints, res.CheckpointErrors)
	}
	if o.ckpt != "" {
		fmt.Printf("checkpoint written to %s\n", o.ckpt)
	}
}

// resultJSON is `leashed train -json`'s result object. The losses are the
// only values that can be non-finite — a crashed run's are NaN or ±Inf — and
// they go through jsonfloat, the one rule for non-finite floats that the
// checkpoint meta follows too (docs/cli.md).
func resultJSON(cfg leashedsgd.Config, archLabel string, real bool, res *leashedsgd.Result) map[string]any {
	out := map[string]any{
		"algo":              cfg.Algo.String(),
		"arch":              archLabel,
		"workers":           cfg.Workers,
		"real_mnist":        real,
		"outcome":           res.Outcome.String(),
		"initial_loss":      jsonfloat.Float(res.InitialLoss),
		"final_loss":        jsonfloat.Float(res.FinalLoss),
		"time_to_target_s":  res.TimeToTarget.Seconds(),
		"updates_to_target": res.UpdatesToTarget,
		"total_updates":     res.TotalUpdates,
		"ms_per_update":     float64(res.TimePerUpdate()) / float64(time.Millisecond),
		"staleness_mean":    res.Staleness.Mean(),
		"staleness_max":     res.Staleness.Max(),
		"failed_cas":        res.FailedCAS,
		"publishes":         res.Publishes,
		"failed_per_pub":    res.FailedPerPublish(),
		"dropped_updates":   res.DroppedUpdates,
		"peak_live_vectors": res.PeakLiveVectors,
		"shards":            res.Shards,
	}
	if res.TouchedComponents > 0 {
		out["touched_components"] = res.TouchedComponents
	}
	if res.ShardFailedCAS != nil {
		out["shard_failed_cas"] = res.ShardFailedCAS
		out["shard_dropped"] = res.ShardDropped
		out["shard_publishes"] = res.ShardPublishes
		out["shard_staleness_mean"] = res.ShardStalenessMean
		out["shard_touched"] = res.ShardTouched
	}
	if res.ResumedFrom > 0 {
		out["resumed_from"] = res.ResumedFrom
	}
	if len(res.WorkerFaults) > 0 {
		out["worker_faults"] = len(res.WorkerFaults)
		out["worker_restarts"] = res.WorkerRestarts
	}
	if res.Checkpoints > 0 || res.CheckpointErrors > 0 {
		out["checkpoints"] = res.Checkpoints
		out["checkpoint_errors"] = res.CheckpointErrors
	}
	return out
}

// writeResultJSON writes the result object, indented, to w.
func writeResultJSON(w io.Writer, out map[string]any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
