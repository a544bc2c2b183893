// Command leashed runs the paper's experiment suite (Table I, steps S1-S5)
// and prints the regenerated tables and figures.
//
// Usage:
//
//	leashed run <step> [flags]     run one step: s1, s1-eta, s2, s3, s4, s5, fig9, shards, autotune, jointtune, serveload, sparse, chaos
//	leashed run-all [flags]        run every step at the configured scale
//	leashed serve [flags]          HTTP prediction server over a live training run
//	leashed table1                 print the experiment-plan summary
//
// Flags:
//
//	-scale small|paper   workload scale (default small; paper takes hours)
//	-arch mlp|cnn|paper-mlp|paper-cnn   override architecture
//	-threads 1,2,4,8     thread counts for scalability sweeps
//	-trials N            repetitions per cell
//	-budget DUR          per-run time budget
//	-csv FILE            also write each table as CSV into FILE (appended)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"leashedsgd/internal/harness"
	"leashedsgd/internal/report"
	"leashedsgd/internal/serve"
	"leashedsgd/internal/sgd"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	// Commands with their own flag sets dispatch before the shared
	// experiment flags are parsed.
	switch cmd {
	case "table1":
		harness.TableI().Render(os.Stdout)
		return
	case "train":
		runTrain(os.Args[2:])
		return
	case "serve":
		runServe(os.Args[2:])
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	scaleName := fs.String("scale", "small", "workload scale: small or paper")
	archName := fs.String("arch", "", "architecture override: mlp, cnn, paper-mlp, paper-cnn")
	threadsFlag := fs.String("threads", "", "comma-separated thread counts (default depends on cores)")
	trials := fs.Int("trials", 0, "repetitions per cell (0 = scale default)")
	budget := fs.Duration("budget", 0, "per-run time budget (0 = scale default)")
	shardsFlag := fs.String("shards", "1,2,4,8", "comma-separated shard counts for the shards step")
	csvPath := fs.String("csv", "", "append every table as CSV to this file")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	switch cmd {
	case "run", "run-all":
	default:
		usage()
		os.Exit(2)
	}

	sc := harness.Small()
	if *scaleName == "paper" {
		sc = harness.Paper()
	}
	if *archName != "" {
		arch, err := parseArch(*archName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sc.Arch = arch
	}
	if *trials > 0 {
		sc.Trials = *trials
	}
	if *budget > 0 {
		sc.MaxTime = *budget
	}
	threads := defaultThreads()
	if *threadsFlag != "" {
		var err error
		threads, err = parseThreads(*threadsFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	shardCounts, err := parseThreads(*shardsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bad -shards:", err)
		os.Exit(2)
	}

	emit := func(tables ...*report.Table) {
		for _, t := range tables {
			t.Render(os.Stdout)
			fmt.Println()
			if *csvPath != "" {
				f, err := os.OpenFile(*csvPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				if err := t.WriteCSV(f); err != nil {
					fmt.Fprintln(os.Stderr, err)
				}
				f.Close()
			}
		}
	}

	steps := []string{"s1", "s1-eta", "s2", "s3", "s4", "s5", "fig9", "shards", "autotune", "jointtune", "serveload", "sparse", "chaos"}
	if cmd == "run" {
		if fs.NArg() != 1 {
			fmt.Fprintf(os.Stderr, "run needs exactly one step (%s)\n", strings.Join(steps, ", "))
			os.Exit(2)
		}
		steps = []string{fs.Arg(0)}
	}

	start := time.Now()
	for _, step := range steps {
		fmt.Printf("### step %s (scale=%s, arch=%s, trials=%d)\n\n", step, *scaleName, sc.Arch, sc.Trials)
		runStep(step, sc, threads, shardCounts, emit)
	}
	fmt.Printf("total experiment time: %v\n", time.Since(start).Round(time.Second))
}

func runStep(step string, sc harness.Scale, threads, shardCounts []int, emit func(...*report.Table)) {
	specs := harness.StandardAlgos()
	switch step {
	case "s1":
		conv, comp, _ := harness.Fig3Scalability(sc, harness.AllAlgos(), threads, 0.5)
		emit(conv, comp)
	case "s1-eta":
		conv, stat := harness.Fig8StepSize(sc, specs, mid(threads), []float64{0.01, 0.03, 0.05, 0.07, 0.09}, 0.5)
		emit(conv, stat)
	case "s2":
		tbl, cells := harness.Fig4Precision(sc, specs, mid(threads), []float64{0.5, 0.25, 0.1})
		emit(tbl)
		harness.Fig5Traces(os.Stdout, fmt.Sprintf("Fig.5: training loss over time, m=%d", mid(threads)), cells, specs)
		stal := harness.Fig6Staleness(os.Stdout, fmt.Sprintf("Fig.6: staleness, m=%d", mid(threads)), cells, specs)
		emit(stal)
	case "s3":
		cnnScale := sc
		if sc.Arch == harness.PaperMLP {
			cnnScale.Arch = harness.PaperCNN
		} else {
			cnnScale.Arch = harness.SmallCNN
		}
		tbl, cells := harness.Fig4Precision(cnnScale, specs, mid(threads), []float64{0.75, 0.5})
		emit(tbl)
		harness.Fig5Traces(os.Stdout, "Fig.7(mid): CNN training loss over time", cells, specs)
		stal := harness.Fig6Staleness(os.Stdout, "Fig.7(right): CNN staleness", cells, specs)
		emit(stal)
	case "s4":
		// High parallelism: oversubscribe beyond the core count, the
		// paper's hyper-threaded stress regime.
		m := threads[len(threads)-1] * 2
		tbl, cells := harness.Fig4Precision(sc, specs, m, []float64{0.75, 0.5})
		emit(tbl)
		stal := harness.Fig6Staleness(os.Stdout, fmt.Sprintf("Fig.6(right): staleness, m=%d", m), cells, specs)
		emit(stal)
	case "s5":
		emit(harness.Fig10Memory(sc, specs, threads))
	case "shards":
		// Shard-count contention sweep at the oversubscribed worker count
		// (the regime where single-chain CAS contention peaks).
		m := threads[len(threads)-1] * 2
		emit(harness.ShardSweep(sc, m, shardCounts, sgd.PersistenceInf))
	case "autotune":
		// Closed-loop follow-up to the shards step: the autotune
		// controller against the static sweep, with the S-trajectory and
		// re-shard count on the auto row.
		m := threads[len(threads)-1] * 2
		emit(harness.AutoShardSweep(sc, m, shardCounts, sgd.PersistenceInf))
	case "jointtune":
		// Two-dimensional follow-up: the static Tp×S reference grid and
		// the landing points of both joint (Tp, S) controllers — the
		// hill-climbing ladder and the model-guided jumper — with their
		// trajectories, jump counts and fit residuals.
		m := threads[len(threads)-1] * 2
		sweep, auto := harness.JointTuneCompare(sc, m, []int{16, 4, 1, 0}, shardCounts)
		emit(sweep, auto)
	case "serveload":
		// Online-inference load sweep: closed-loop predict clients against a
		// live autotuned training run, reporting throughput, tail latency,
		// coalescing factor and the consistency-label mix — once per read
		// path, so the leased-vs-readfront comparison lands in one report.
		emit(
			harness.ServeLoadSweep(sc, mid(threads), []int{1, 4, 16}, sc.MaxTime/8, serve.StoreLeased),
			harness.ServeLoadSweep(sc, mid(threads), []int{1, 4, 16}, sc.MaxTime/8, serve.StoreReadFront),
		)
	case "sparse":
		// Sparse scatter-publish sweep: first-class sparse gradients
		// against the dense whole-vector control arm across shard counts,
		// with HOGWILD! as the sparse-regime reference.
		m := threads[len(threads)-1] * 2
		ssc := harness.SmallSparse()
		ssc.MaxTime = sc.MaxTime
		emit(harness.SparseSweep(ssc, m, shardCounts))
	case "chaos":
		// Fault-injection survival matrix: deterministic worker panics and
		// publish failures at increasing rates, per algorithm, with a
		// kill-at-first-checkpoint + resume arm per faulted cell.
		emit(harness.ChaosSweep(sc, mid(threads), []float64{0.002, 0.01, 0.05}))
	case "fig9":
		archs := []harness.Arch{harness.SmallMLP, harness.SmallCNN}
		if sc.Arch == harness.PaperMLP || sc.Arch == harness.PaperCNN {
			archs = []harness.Arch{harness.PaperMLP, harness.PaperCNN}
		}
		emit(harness.Fig9TcTu(sc, archs, mid(threads)))
	default:
		fmt.Fprintf(os.Stderr, "unknown step %q\n", step)
		os.Exit(2)
	}
}

func defaultThreads() []int {
	max := runtime.GOMAXPROCS(0)
	threads := []int{1}
	for m := 2; m <= max*2; m *= 2 {
		threads = append(threads, m)
	}
	return threads
}

func mid(threads []int) int {
	return threads[len(threads)/2]
}

func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		m, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || m < 1 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty thread list")
	}
	return out, nil
}

func parseArch(s string) (harness.Arch, error) {
	switch s {
	case "mlp":
		return harness.SmallMLP, nil
	case "cnn":
		return harness.SmallCNN, nil
	case "paper-mlp":
		return harness.PaperMLP, nil
	case "paper-cnn":
		return harness.PaperCNN, nil
	default:
		return 0, fmt.Errorf("unknown arch %q", s)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  leashed run <s1|s1-eta|s2|s3|s4|s5|fig9|shards|autotune|jointtune|serveload|sparse|chaos> [flags]
  leashed run-all [flags]
  leashed train [-algo LSH] [-arch mlp] [-workers N] [-shards S] [-autotune] [-autotune-model] [-json] [-ckpt FILE] [-ckpt-every DUR] [-ckpt-keep N] [-resume] [-updates N] ...
  leashed serve [-addr HOST:PORT] [-arch mlp] [-workers N] [-budget DUR] [-store leased|readfront] [-leash-age DUR] ...
  leashed table1
flags: -scale small|paper -arch A -threads 1,2,4 -trials N -budget DUR -shards 1,2,4,8 -csv FILE`)
}
