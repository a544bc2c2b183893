// Command bench is the repository's benchmark: five workloads, the
// end-to-end numbers a user of the system sees (time to ε, updates/s, set-up
// time, peak memory) measured through the public entry points, and a
// per-layer budget measured from outside by timing calls into each package's
// exported functions. See README.md for the tables and BENCHMARK.json at the
// repository root for the contract.
//
//	bench -workload NAME -seed N -seconds T -trace 0|1   one pass of one workload
//	bench -seed N [-runs K] [-trace 1]                    every workload, a fresh process each
//	bench compare old.json new.json
//	bench repeat -sets 2
//	bench selftest
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload pass.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of the timed pass (-trace 0), in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"time_to_eps_s", "s"},
	{"updates_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

// metricSet collects values for a fixed list of names, so a pass can neither
// emit a name BENCHMARK.json does not list nor leave a listed one out.
type metricSet struct {
	defs []metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]float64, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			m.vals[name] = v
			return
		}
	}
	panic("bench: metric " + name + " is not declared")
}

// metrics returns every declared metric; one no phase set reads 0, which for
// a per-layer metric means the layer is not on this workload's path.
func (m *metricSet) metrics() map[string]metric {
	out := make(map[string]metric, len(m.defs))
	for _, d := range m.defs {
		out[d.name] = metric{Value: m.vals[d.name], Unit: d.unit}
	}
	return out
}

// printMetrics prints every metric by name with its unit, in defs' order.
func printMetrics(defs []metricDef, m map[string]metric) {
	for _, d := range defs {
		fmt.Printf("  %-40s %14.6g %s\n", d.name, m[d.name].Value, d.unit)
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	traceDir string
	smoke    bool
	runs     int
}

// parseRunFlags parses the flags every run mode shares; extra, when non-nil,
// registers a subcommand's own.
func parseRunFlags(name string, args []string, extra func(*flag.FlagSet)) (options, error) {
	var o options
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all, a fresh process each)")
	fs.Uint64Var(&o.seed, "seed", 1, "base seed: datasets, run seeds and client input derive from it")
	fs.Float64Var(&o.seconds, "seconds", 22, "measured seconds per pass")
	fs.IntVar(&o.trace, "trace", 0, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", "out", "directory for span files and summaries")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes: checks names and plumbing, not speed")
	fs.IntVar(&o.runs, "runs", 1, "all-workload mode: passes per workload, seeds seed..seed+runs-1")
	if extra != nil {
		extra(fs)
	}
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds <= 0 || o.runs < 1 || (o.trace != 0 && o.trace != 1) {
		return o, errors.New("need -seconds > 0, -runs >= 1 and -trace 0 or 1")
	}
	return o, nil
}

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "compare":
		err = cmdCompare(args[1:])
	case len(args) > 0 && args[0] == "repeat":
		err = cmdRepeat(args[1:])
	case len(args) > 0 && args[0] == "selftest":
		err = cmdSelftest(args[1:])
	default:
		var o options
		if o, err = parseRunFlags("bench", args, nil); err == nil {
			if o.workload != "" {
				err = runOne(o)
			} else {
				_, err = runAll(o, filepath.Join(o.traceDir, fmt.Sprintf("set-%d.json", o.seed)))
			}
		}
	}
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		os.Exit(1)
	}
}

// runOne runs one pass of one workload in this process and prints the
// metrics by name, the context, and the result object as the last line.
func runOne(o options) error {
	s, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.smoke {
		s = s.smoke()
	}
	ctx := newContext(o.seed, s.trainWorkers())
	var res result
	defs := endToEnd
	if o.trace == 0 {
		res = timedResult(s, o)
	} else {
		var err error
		if res, err = tracedResult(s, o); err != nil {
			return err
		}
		defs = perLayer
	}
	fmt.Printf("%s seed=%d trace=%d\n", s.name, o.seed, o.trace)
	printMetrics(defs, res.Metrics)
	if err := printContext(s.name, ctx); err != nil {
		return err
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// printContext prints the context block as one JSON line ending in
// "claim": null — the benchmark measures, it claims no gain.
func printContext(workload string, ctx runContext) error {
	b, err := json.Marshal(struct {
		Workload string     `json:"workload,omitempty"`
		Context  runContext `json:"context"`
		Claim    *string    `json:"claim"`
	}{workload, ctx, nil})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// timedResult is the -trace 0 pass: tracing off, SampleTiming off.
func timedResult(s spec, o options) result {
	pool, poolS := s.timedSetup()
	warmUp(s, pool, o.seed, o.seconds, nil)
	p := timedPass(s, pool, o.seed, o.seconds, minDraws, nil)
	p.poolS = poolS
	res := p.endToEnd()
	tt, rates := p.ttes(), p.rates()
	fmt.Printf("%s: %d draws in %.2fs measured; time to eps=%.2g: median %.4fs, quartile spread %.1f%%, updates to eps median %.0f; updates/s over %d stretches: median %.1f, upper quartile %.1f\n",
		s.name, len(p.draws), p.measuredS, s.eps, median(tt), 100*quartileSpread(tt), median(p.updatesToEps()), len(rates), median(rates), p.sustainedRate())
	if s.serve {
		printServe(p)
	}
	if p.firstError != "" {
		fmt.Printf("%s: first failure: %s\n", s.name, p.firstError)
	}
	return res
}

// printServe prints the client's view of a serve_live timed pass. These are
// per-layer metrics (emitted by the traced pass); the timed pass shows them
// for the reader only.
func printServe(p *pass) {
	ms := newMetricSet(perLayer)
	serveMetrics(ms, p)
	for _, n := range []string{"serve.predict_p50_us", "serve.predict_p99_us", "serve.predict_tail_us", "serve.predict_tail_pct", "serve.predict_samples", "serve.predict_per_s"} {
		fmt.Printf("  (%s %.6g)\n", n, ms.vals[n])
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// setRun is one pass as recorded in a set file.
type setRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// set is what all-workload mode writes and compare reads.
type set struct {
	Context runContext `json:"context"`
	Runs    []setRun   `json:"runs"`
	Claim   *string    `json:"claim"` // always null: the benchmark claims no gain
}

// runAll runs every workload in a fresh process each (so RSS, heap and
// scheduler state do not leak from one to the next), o.runs timed passes per
// workload on consecutive seeds, plus one traced pass when -trace 1, and
// writes the set to path.
func runAll(o options, path string) (*set, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	st := &set{Context: newContext(o.seed, min(runtime.NumCPU(), 4))}
	for _, w := range workloads {
		type job struct {
			seed  uint64
			trace int
		}
		var jobs []job
		for k := 0; k < o.runs; k++ {
			jobs = append(jobs, job{o.seed + uint64(k), 0})
		}
		if o.trace == 1 {
			jobs = append(jobs, job{o.seed, 1})
		}
		for _, j := range jobs {
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(j.seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(j.trace), "-trace-dir", o.traceDir}
			if o.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			outb, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("%s seed %d trace %d: %w", w.name, j.seed, j.trace, err)
			}
			lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
			fmt.Println(strings.Join(lines[:len(lines)-2], "\n"))
			r := setRun{Workload: w.name, Seed: j.seed, Trace: j.trace}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.result); err != nil {
				return nil, fmt.Errorf("%s seed %d: parse result line: %w", w.name, j.seed, err)
			}
			st.Runs = append(st.Runs, r)
		}
	}
	if err := writeSet(path, st); err != nil {
		return nil, err
	}
	printSet(st)
	fmt.Printf("set written to %s\n", path)
	if err := printContext("", st.Context); err != nil {
		return nil, err
	}
	return st, nil
}

func writeSet(path string, st *set) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write set: %w", err)
	}
	b, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write set: %w", err)
	}
	return nil
}

func readSet(path string) (*set, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var st set
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &st, nil
}

// values returns the set's timed-pass values of one workload × metric.
func (st *set) values(workload, name string) []float64 {
	var out []float64
	for _, r := range st.Runs {
		if r.Workload == workload && r.Trace == 0 {
			if m, ok := r.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// failedFrac is failed over attempted operations of one workload's timed
// passes.
func (st *set) failedFrac(workload string) float64 {
	var failed, attempted int
	for _, r := range st.Runs {
		if r.Workload == workload && r.Trace == 0 {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// printSet prints one row per workload × metric: median, quartile spread and
// sample count of the timed passes, then the traced pass's per-layer values.
func printSet(st *set) {
	fmt.Printf("\n%-16s %-18s %14s %8s %4s  %s\n", "workload", "metric", "median", "spread", "n", "unit")
	for _, w := range workloads {
		for _, d := range endToEnd {
			v := st.values(w.name, d.name)
			if len(v) == 0 {
				continue
			}
			fmt.Printf("%-16s %-18s %14.6g %7.1f%% %4d  %s\n", w.name, d.name, median(v), 100*quartileSpread(v), len(v), d.unit)
		}
		fmt.Printf("%-16s %-18s %14.6g %8s %4s  ratio\n", w.name, "failed_frac", st.failedFrac(w.name), "", "")
	}
	for _, r := range st.Runs {
		if r.Trace != 1 {
			continue
		}
		fmt.Printf("\n%s per-layer (seed %d)\n", r.Workload, r.Seed)
		printMetrics(perLayer, r.Metrics)
	}
}
