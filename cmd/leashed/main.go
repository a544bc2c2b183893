// Command leashed runs the paper's experiment suite (Table I, steps S1-S5)
// and prints the regenerated tables and figures.
//
// Usage:
//
//	leashed run <step> [flags]     run one step (usage and docs/cli.md list them)
//	leashed run-all [flags]        run every step, in paper order
//	leashed train [flags]          one training run with explicit hyper-parameters
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
	todo, err := selectSteps(cmd, fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
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
		threads, err = parseThreads(*threadsFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
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

	start := time.Now()
	for _, st := range todo {
		fmt.Printf("### step %s (scale=%s, arch=%s, trials=%d)\n\n", st.name, *scaleName, sc.Arch, sc.Trials)
		st.run(sc, threads, emit)
	}
	fmt.Printf("total experiment time: %v\n", time.Since(start).Round(time.Second))
}

// emitter renders tables to stdout (and to the -csv file).
type emitter func(...*report.Table)

// step is one `leashed run` experiment: its name and what it runs.
type step struct {
	name string
	run  func(sc harness.Scale, threads []int, emit emitter)
}

// steps is the one list of `leashed run` steps, in paper order: run looks a
// step up here, run-all runs them all in this order, and usage() prints
// their names.
var steps = []step{
	{"s1", func(sc harness.Scale, threads []int, emit emitter) {
		conv, comp, _ := harness.Fig3Scalability(sc, harness.AllAlgos(), threads, 0.5)
		emit(conv, comp)
	}},
	{"s1-eta", func(sc harness.Scale, threads []int, emit emitter) {
		conv, stat := harness.Fig8StepSize(sc, harness.StandardAlgos(), mid(threads), []float64{0.01, 0.03, 0.05, 0.07, 0.09}, 0.5)
		emit(conv, stat)
	}},
	{"s2", func(sc harness.Scale, threads []int, emit emitter) {
		specs := harness.StandardAlgos()
		tbl, cells := harness.Fig4Precision(sc, specs, mid(threads), []float64{0.5, 0.25, 0.1})
		emit(tbl)
		harness.Fig5Traces(os.Stdout, fmt.Sprintf("Fig.5: training loss over time, m=%d", mid(threads)), cells, specs)
		emit(harness.Fig6Staleness(os.Stdout, fmt.Sprintf("Fig.6: staleness, m=%d", mid(threads)), cells, specs))
	}},
	{"s3", func(sc harness.Scale, threads []int, emit emitter) {
		specs := harness.StandardAlgos()
		if sc.Arch == harness.PaperMLP {
			sc.Arch = harness.PaperCNN
		} else {
			sc.Arch = harness.SmallCNN
		}
		tbl, cells := harness.Fig4Precision(sc, specs, mid(threads), []float64{0.75, 0.5})
		emit(tbl)
		harness.Fig5Traces(os.Stdout, "Fig.7(mid): CNN training loss over time", cells, specs)
		emit(harness.Fig6Staleness(os.Stdout, "Fig.7(right): CNN staleness", cells, specs))
	}},
	{"s4", func(sc harness.Scale, threads []int, emit emitter) {
		// High parallelism: oversubscribe beyond the core count, the
		// paper's hyper-threaded stress regime.
		specs := harness.StandardAlgos()
		m := threads[len(threads)-1] * 2
		tbl, cells := harness.Fig4Precision(sc, specs, m, []float64{0.75, 0.5})
		emit(tbl)
		emit(harness.Fig6Staleness(os.Stdout, fmt.Sprintf("Fig.6(right): staleness, m=%d", m), cells, specs))
	}},
	{"s5", func(sc harness.Scale, threads []int, emit emitter) {
		emit(harness.Fig10Memory(sc, harness.StandardAlgos(), threads))
	}},
	{"fig9", func(sc harness.Scale, threads []int, emit emitter) {
		archs := []harness.Arch{harness.SmallMLP, harness.SmallCNN}
		if sc.Arch == harness.PaperMLP || sc.Arch == harness.PaperCNN {
			archs = []harness.Arch{harness.PaperMLP, harness.PaperCNN}
		}
		emit(harness.Fig9TcTu(sc, archs, mid(threads)))
	}},
}

// stepNames lists the step names in paper order.
func stepNames() string {
	names := make([]string, len(steps))
	for i, st := range steps {
		names[i] = st.name
	}
	return strings.Join(names, ", ")
}

// selectSteps resolves the steps a run or run-all command executes from its
// positional arguments: run takes exactly one known step, run-all none.
func selectSteps(cmd string, args []string) ([]step, error) {
	if cmd == "run-all" {
		if len(args) != 0 {
			return nil, fmt.Errorf("run-all takes no step (got %q)", args)
		}
		return steps, nil
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("run needs exactly one step (%s)", stepNames())
	}
	for _, st := range steps {
		if st.name == args[0] {
			return []step{st}, nil
		}
	}
	return nil, fmt.Errorf("unknown step %q (valid steps: %s)", args[0], stepNames())
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
	fmt.Fprintf(os.Stderr, `usage:
  leashed run <step> [flags]   steps: %s
  leashed run-all [flags]
  leashed train [-algo LSH] [-arch mlp] [-workers N] [-shards S] [-json] [-ckpt FILE] [-ckpt-every DUR] [-ckpt-keep N] [-resume] [-updates N] ...
  leashed serve [-addr HOST:PORT] [-arch mlp] [-workers N] [-budget DUR] [-store leased|readfront] [-leash-age DUR] ...
  leashed table1
flags: -scale small|paper -arch A -threads 1,2,4 -trials N -budget DUR -csv FILE
`, stepNames())
}
