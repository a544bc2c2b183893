package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"leashedsgd"
)

// runTrain implements `leashed train`: one training run with explicit
// hyper-parameters, optional JSON result output and checkpoint saving —
// the single-run counterpart to the experiment steps.
func runTrain(args []string) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	algoName := fs.String("algo", "LSH", "SEQ, SYNC, ASYNC, HOG, LSH, LSH-adaptive")
	arch := fs.String("arch", "mlp", "mlp, cnn, paper-mlp, paper-cnn")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "worker count m")
	eta := fs.Float64("eta", 0.05, "step size")
	batch := fs.Int("batch", 16, "mini-batch size")
	persistence := fs.Int("persistence", leashedsgd.PersistenceInf, "LSH persistence bound Tp (-1 = inf)")
	shards := fs.Int("shards", 1, "published-vector shard count (LSH/HOG; 1 = paper's single chain)")
	autoTune := fs.Bool("autotune", false, "jointly autotune shard count AND persistence bound (LSH; excludes -shards)")
	autoTuneModel := fs.Bool("autotune-model", false, "model-guided joint autotune: fit the queueing model online and jump to its predicted (S, Tp) (LSH; excludes -shards)")
	epsilon := fs.Float64("epsilon", 0.25, "convergence target as fraction of initial loss (0 = run to budget)")
	budget := fs.Duration("budget", 60*time.Second, "time budget")
	samples := fs.Int("samples", 1024, "dataset size")
	seed := fs.Uint64("seed", 1, "seed")
	momentum := fs.Float64("momentum", 0, "heavy-ball momentum (extension)")
	tauBeta := fs.Float64("tau-beta", 0, "staleness-adaptive step-size beta (extension)")
	mnistDir := fs.String("mnist", "", "real MNIST IDX directory (optional)")
	sparseRun := fs.Bool("sparse", false, "train sparse logistic regression instead of the dense net (-dim/-nnz)")
	sparseDim := fs.Int("dim", 131072, "sparse feature dimension (with -sparse)")
	sparseNNZ := fs.Int("nnz", 64, "non-zeros per sparse example (with -sparse)")
	sparseAsDense := fs.Bool("sparse-as-dense", false, "carry sparse gradients as dense steps (control arm, with -sparse)")
	ckpt := fs.String("ckpt", "", "save trained model checkpoint to this path")
	ckptEvery := fs.Duration("ckpt-every", 0, "also checkpoint mid-run on this cadence (rotated FILE.NNNNNN beside -ckpt)")
	ckptKeep := fs.Int("ckpt-keep", 0, "rotated mid-run checkpoints to retain (0 = default)")
	resume := fs.Bool("resume", false, "resume from the newest valid rotated checkpoint beside -ckpt")
	updates := fs.Int64("updates", 0, "update budget (0 = unbounded; with -resume, the ORIGINAL budget)")
	jsonOut := fs.Bool("json", false, "emit the result summary as JSON")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	var algo leashedsgd.Algorithm
	switch *algoName {
	case "SEQ":
		algo = leashedsgd.Seq
	case "SYNC":
		algo = leashedsgd.Sync
	case "ASYNC":
		algo = leashedsgd.Async
	case "HOG":
		algo = leashedsgd.Hogwild
	case "LSH":
		algo = leashedsgd.Leashed
	case "LSH-adaptive":
		algo = leashedsgd.LeashedAdaptive
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algoName)
		os.Exit(2)
	}

	cfg := leashedsgd.Config{
		Algo:            algo,
		Workers:         *workers,
		Eta:             *eta,
		BatchSize:       *batch,
		Persistence:     *persistence,
		Shards:          *shards,
		AutoTune:        *autoTune,
		AutoTuneModel:   *autoTuneModel,
		EpsilonFrac:     *epsilon,
		MaxTime:         *budget,
		MaxUpdates:      *updates,
		Seed:            *seed,
		Momentum:        *momentum,
		TauAdaptiveBeta: *tauBeta,
	}
	if *ckptEvery > 0 || *resume {
		if *ckpt == "" {
			fmt.Fprintln(os.Stderr, "-ckpt-every/-resume need -ckpt FILE as the checkpoint base path")
			os.Exit(2)
		}
		if *sparseRun {
			fmt.Fprintln(os.Stderr, "-ckpt-every/-resume: not supported for -sparse runs")
			os.Exit(2)
		}
		cfg.Checkpoint = leashedsgd.CheckpointConfig{
			Every: *ckptEvery,
			Path:  *ckpt,
			Keep:  *ckptKeep,
		}
	}

	var model *leashedsgd.Model
	var res *leashedsgd.Result
	archLabel := *arch
	real := false
	if *sparseRun {
		// Sparse logistic regression through the same pipeline. BatchSize
		// keeps the sparse default (1) unless -batch was given explicitly.
		batchSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "batch" {
				batchSet = true
			}
		})
		if !batchSet {
			cfg.BatchSize = 0
		}
		cfg.SparseAsDense = *sparseAsDense
		sds := leashedsgd.SyntheticSparse(*samples, *sparseDim, *sparseNNZ, *seed)
		archLabel = fmt.Sprintf("sparse-logreg(d=%d,nnz=%d)", *sparseDim, *sparseNNZ)
		var err error
		res, err = leashedsgd.TrainSparse(cfg, sds)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		switch *arch {
		case "mlp":
			model = leashedsgd.SmallMLP(28*28, 10)
		case "cnn":
			model = leashedsgd.SmallCNN()
		case "paper-mlp":
			model = leashedsgd.PaperMLP()
		case "paper-cnn":
			model = leashedsgd.PaperCNN()
		default:
			fmt.Fprintf(os.Stderr, "unknown arch %q\n", *arch)
			os.Exit(2)
		}
		var ds *leashedsgd.Dataset
		ds, real = leashedsgd.LoadOrSynthesizeMNIST(*mnistDir, *samples, *seed)
		archLabel = model.Arch()
		var err error
		if *resume {
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

	if *ckpt != "" {
		if model == nil {
			fmt.Fprintln(os.Stderr, "checkpoint: not supported for -sparse runs")
			os.Exit(1)
		}
		if err := leashedsgd.SaveCheckpoint(*ckpt, model, res); err != nil {
			fmt.Fprintln(os.Stderr, "checkpoint:", err)
			os.Exit(1)
		}
	}

	if *jsonOut {
		out := map[string]any{
			"algo":              algo.String(),
			"arch":              archLabel,
			"workers":           *workers,
			"real_mnist":        real,
			"outcome":           res.Outcome.String(),
			"initial_loss":      res.InitialLoss,
			"final_loss":        res.FinalLoss,
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
		if res.ShardTrajectory != nil {
			out["shard_trajectory"] = res.ShardTrajectory
			out["reshards"] = res.Reshards
		}
		if res.TpTrajectory != nil {
			out["tp_trajectory"] = res.TpTrajectory
		}
		if mf := res.ModelFit; mf != nil {
			out["model_fitted"] = mf.Fitted
			out["model_jumps"] = mf.Jumps
			out["model_ladder_moves"] = mf.LadderMoves
			if mf.Fitted {
				out["model_residual"] = mf.Residual
				out["model_predicted_s"] = mf.PredictedS
				out["model_predicted_tp"] = mf.PredictedTp
				out["model_occupancy"] = mf.PredictedOccupancy
			}
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
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("%s on %s (m=%d): %s\n", algo, archLabel, *workers, res.Outcome)
	fmt.Printf("loss %.4f -> %.4f", res.InitialLoss, res.FinalLoss)
	if res.Outcome == leashedsgd.Converged && *epsilon > 0 {
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
	if res.ShardTrajectory != nil {
		fmt.Printf("autoshard trajectory %v (%d reshards, final S=%d)\n",
			res.ShardTrajectory, res.Reshards, res.Shards)
	}
	if n := len(res.TpTrajectory); n > 0 {
		fmt.Printf("autotune Tp trajectory %v (final Tp=%d)\n",
			res.TpTrajectory, res.TpTrajectory[n-1])
	}
	if mf := res.ModelFit; mf != nil {
		if mf.Fitted {
			fmt.Printf("model fit: residual %.3f, predicted (S=%d, Tp=%d) occ %.2f; landed (S=%d, Tp=%d) via %d jump(s), %d ladder move(s)\n",
				mf.Residual, mf.PredictedS, mf.PredictedTp, mf.PredictedOccupancy,
				mf.FinalS, mf.FinalTp, mf.Jumps, mf.LadderMoves)
		} else {
			fmt.Printf("model fit: no accepted fit (%d fits, %d rejected, %d fallback windows); ladder steered (S=%d, Tp=%d)\n",
				mf.Fits, mf.Rejected, mf.FallbackWindows, mf.FinalS, mf.FinalTp)
		}
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
	if *ckpt != "" {
		fmt.Printf("checkpoint written to %s\n", *ckpt)
	}
}
