package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"leashedsgd/internal/data"
	"leashedsgd/internal/nn"
	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/rng"
	"leashedsgd/internal/serve"
	"leashedsgd/internal/sgd"
	"leashedsgd/internal/sparse"
	"leashedsgd/internal/tensor"
)

type arch int

const (
	archMLP    arch = iota // nn.NewPaperMLP, d = 134,794
	archCNN                // nn.NewPaperCNN, d = 27,354
	archSparse             // sparse logistic regression, d = 131,072, nnz = 64
)

const (
	sparseDim = 131072
	sparseNNZ = 64
	// poolSeed fixes the population every draw samples its rows from. It is a
	// constant of the workload, like the choice of MNIST, not an input: the
	// generator draws the ten class prototypes from its seed, and how alike
	// they come out moved the MLP's time to ε by 25% between seeds (probed:
	// 3.1 s on one, 3.9-4.0 s on three others, against +-5% between runs on
	// one of them). --seed picks the rows, θ0 and the sampling order.
	poolSeed = 20210517
	// checkRows bounds the rows of the output check's loss evaluation: a
	// forward pass of the d=134,794 MLP costs ~0.13 ms a row, and the check
	// runs once per draw outside the timed window.
	checkRows = 1024
	// setupReps is how often a pass generates the pool and builds the model;
	// setup_s takes the median, so the slow first second of a process (the
	// vCPU speeds up only after ~1 s of work) does not decide it.
	setupReps = 3
	// drawCap ends a converge draw that has not reached ε; such a draw is a
	// failed operation.
	drawCap = 20 * time.Second
	// minDraws is the fewest draws a timed pass takes its medians over. One
	// cnn_converge draw in twenty sits on the initial plateau for three times
	// the usual time; without a floor such a draw would leave a pass with two
	// or three draws, and their median is no median.
	minDraws = 5
)

// spec is one workload. Every workload is a sequence of independent draws of
// three to five seconds: a fresh choice of rows from the pool, a fresh θ0 and
// a fresh sampling order each.
type spec struct {
	name, why string
	arch      arch
	pool      int // rows generated
	rows      int // rows a draw trains on, chosen from the pool by the seed
	batch     int
	eta       float64
	shards    int
	// eps is ε as a share of f(θ0); time_to_eps_s is the time to reach it.
	eps float64
	// budget > 0 makes the draw a fixed-budget run of exactly that many
	// updates, ε read off the loss trace; 0 runs until ε.
	budget int64
	// lossMax is the absolute bound on the final loss of a fixed-budget draw.
	lossMax float64
	// arms adds ASYNC and HOGWILD! runs of the same task to the traced pass.
	arms bool
	// serve gives one worker's core to a closed-loop predict client that
	// reads through serve.Server while the run publishes.
	serve bool
}

// The quality levels are probed on this commit (2 workers, a hundred draws
// each). Converge draws stop at ε and must then hold 2·ε·f(θ0) on the check
// rows: mlp_converge ends at 0.034-0.057 against a limit of 0.094,
// cnn_converge at 0.0086-0.0167 against 0.023, serve_live at 0.18-0.28
// against 0.47. Fixed budgets must end under lossMax: dense_publish ends at
// 0.033-0.080 (median 0.043; its last iterate follows single-sample steps)
// after its 10,000 updates, sparse_scatter at 0.0076-0.0079 after its 100,000.
var workloads = []spec{
	{
		name: "mlp_converge", arch: archMLP, pool: 8192, rows: 4096, batch: 32, eta: 0.005, shards: 1, eps: 0.02,
		why: "headline (paper Figs. 3-4): the b=32 GEMM gradient is ~80% of an iteration, publish ~18%; nn/tensor dense kernels decide it",
	},
	{
		name: "cnn_converge", arch: archCNN, pool: 8192, rows: 4096, batch: 32, eta: 0.01, shards: 1, eps: 0.005,
		why: "paper Fig. 7: conv/im2col/pool do nearly all the work, the 214 KB publish none; a publish-path gain must show no change here",
	},
	{
		name: "dense_publish", arch: archMLP, pool: 8192, rows: 4096, batch: 1, eta: 0.002, shards: 1, eps: 0.05, budget: 10000, lossMax: 0.15, arms: true,
		why: "Tu/Tc~0.9: the 1 MB copy+axpy+CAS+pool of paramvec is 40% of every iteration and one CAS in five fails; GEMM barely matters",
	},
	{
		name: "sparse_scatter", arch: archSparse, pool: 16384, rows: 8192, batch: 1, eta: 0.1, shards: 64, eps: 0.02, budget: 100000, lossMax: 0.01,
		why: "same publish layer used as a scatter over 64 chains (RunSparse): sparse.Grad and gather kernels replace nn; no dense kernel runs",
	},
	{
		name: "serve_live", arch: archMLP, pool: 8192, rows: 4096, batch: 32, eta: 0.005, shards: 8, eps: 0.1, serve: true,
		why: "reads beside writes: a closed-loop client predicts through serve+ReadFront while m-1 workers publish dense steps over 8 chains",
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// smoke shrinks a workload so a whole pass takes well under a second; the
// numbers are meaningless, the names and units are what the smoke test reads.
func (s spec) smoke() spec {
	s.pool, s.rows = 512, 256
	s.eps = 0.97
	if s.budget > 0 {
		s.budget /= 50
		s.lossMax = math.Inf(1)
	}
	return s
}

// trainWorkers is m: min(nproc, 4), and one fewer (at least 1) when a
// predict client needs a core, so no workload runs more busy goroutines than
// cores besides the program's own monitor.
func (s spec) trainWorkers() int {
	m := min(runtime.NumCPU(), 4)
	if s.serve {
		m = max(m-1, 1)
	}
	return m
}

// instance is the model and the rows one draw trains on (or, as setup
// returns it, the whole pool).
type instance struct {
	net *nn.Network
	ds  *data.Dataset
	sds *sparse.Dataset
}

// setup generates the pool and builds the model: the part of set-up that
// happens before sgd.Start is called. The result does not depend on the seed.
func (s spec) setup() *instance {
	in := &instance{}
	switch s.arch {
	case archSparse:
		in.sds = sparse.Generate(sparse.GenConfig{N: s.pool, Dim: sparseDim, NNZ: sparseNNZ, Seed: poolSeed})
	case archMLP:
		in.net = nn.NewPaperMLP()
	case archCNN:
		in.net = nn.NewPaperCNN()
	}
	if s.arch != archSparse {
		in.ds = data.GenerateSynthetic(data.DefaultSyntheticConfig(s.pool, poolSeed))
	}
	return in
}

// timedSetup sets up setupReps times, collecting the garbage of one before
// the next so peak RSS holds one pool, and returns the last instance (they
// are identical) and the median time.
func (s spec) timedSetup() (*instance, float64) {
	var in *instance
	times := make([]float64, setupReps)
	for i := range times {
		in = nil
		runtime.GC()
		t0 := time.Now()
		in = s.setup()
		times[i] = time.Since(t0).Seconds()
	}
	return in, median(times)
}

// subset is the instance of one draw: s.rows rows of the pool, chosen and
// ordered by the draw's seed. Rows are shared with the pool, not copied.
func (s spec) subset(pool *instance, drawSeed uint64) *instance {
	perm := make([]int, s.pool)
	rng.NewStream(drawSeed, 1).Perm(perm)
	perm = perm[:s.rows]
	in := &instance{net: pool.net}
	if s.arch == archSparse {
		in.sds = &sparse.Dataset{Dim: pool.sds.Dim, Truth: pool.sds.Truth, Examples: make([]sparse.Example, s.rows)}
		for i, j := range perm {
			in.sds.Examples[i] = pool.sds.Examples[j]
		}
		return in
	}
	p := pool.ds
	in.ds = &data.Dataset{H: p.H, W: p.W, Classes: p.Classes, X: make([][]float64, s.rows), Y: make([]int, s.rows)}
	for i, j := range perm {
		in.ds.X[i], in.ds.Y[i] = p.X[j], p.Y[j]
	}
	return in
}

func (s spec) config(runSeed uint64) sgd.Config {
	c := sgd.Config{
		Algo:        sgd.Leashed,
		Workers:     s.trainWorkers(),
		Eta:         s.eta,
		BatchSize:   s.batch,
		Persistence: sgd.PersistenceInf,
		Shards:      s.shards,
		Seed:        runSeed,
	}
	if s.budget > 0 {
		c.MaxUpdates = s.budget
	} else {
		c.EpsilonFrac = s.eps
		c.MaxTime = drawCap
	}
	return c
}

// boxed turns a draw into a run of fixed duration with no target: the
// warm-up and the traced pass's baseline arms want a rate, not a result, and
// such a draw's outputs are not checked.
func boxed(d time.Duration) func(*sgd.Config) {
	return func(c *sgd.Config) { c.EpsilonFrac, c.MaxUpdates, c.MaxTime = 0, 0, d }
}

// draw is the outcome of one run of a workload.
type draw struct {
	res *sgd.Result
	tte float64 // seconds to ε; NaN when the draw never got there
	// updToEps is the update count at ε: time_to_eps_s is about this divided
	// by updates_per_s, so it separates a throughput change from a change in
	// how many updates convergence needs (staleness). 0 on a miss.
	updToEps int64
	errs     []string
	loss     float64       // of the final parameters on the check rows
	selectS  float64       // choosing the draw's rows
	startMs  float64       // sgd.Start call to handle returned
	wall     time.Duration // sgd.Start call to Wait returned
	// serve_live only.
	lat          []float64 // client-side predict latencies, us
	window       float64   // seconds the client loop ran
	predicts     int       // attempted
	badPreds     int
	staleAgeUs   float64 // summed over answered predicts
	staleUpdates float64
	overLeash    int
	predStats    serve.Stats
}

// run executes one draw on in and checks its outputs. mutate, when non-nil,
// edits the run's Config first (the traced pass turns SampleTiming on, the
// self-test plants a stall).
func (s spec) run(in *instance, runSeed uint64, mutate func(*sgd.Config)) *draw {
	cfg := s.config(runSeed)
	if mutate != nil {
		mutate(&cfg)
	}
	d := &draw{tte: math.NaN()}
	t0 := time.Now()
	var run *sgd.Running
	var err error
	if s.arch == archSparse {
		run, err = sgd.StartSparse(cfg, in.sds)
	} else {
		run, err = sgd.Start(cfg, in.net, in.ds)
	}
	if err != nil {
		d.errs = append(d.errs, err.Error())
		return d
	}
	d.startMs = float64(time.Since(t0)) / 1e6
	if s.serve {
		err = s.serveClient(in, run, runSeed, d)
	}
	d.res = run.Wait()
	d.wall = time.Since(t0)
	if err != nil {
		d.errs = append(d.errs, err.Error())
		return d
	}
	if cfg.EpsilonFrac > 0 || cfg.MaxUpdates > 0 {
		s.check(in, cfg, d)
	}
	// The pass keeps every draw's Result for its counters; the 1 MB parameter
	// vector is not among them.
	d.res.FinalParams = nil
	return d
}

// check applies the output checks of a training draw and reads off tte.
func (s spec) check(in *instance, cfg sgd.Config, d *draw) {
	res := d.res
	var loss float64
	if s.arch == archSparse {
		loss = sparse.Loss(res.FinalParams, in.sds)
	} else {
		idx := make([]int, min(s.rows, checkRows))
		for i := range idx {
			idx[i] = i
		}
		loss = in.net.Loss(res.FinalParams, in.ds, idx, in.net.NewWorkspace())
	}
	d.loss = loss
	target := s.eps * res.InitialLoss
	if cfg.MaxUpdates > 0 {
		if res.TotalUpdates != cfg.MaxUpdates {
			d.errs = append(d.errs, fmt.Sprintf("applied %d updates, budget %d", res.TotalUpdates, cfg.MaxUpdates))
		}
		if p := res.Trace.FirstBelow(target); p != nil {
			d.tte, d.updToEps = p.Elapsed.Seconds(), p.Updates
		} else {
			d.errs = append(d.errs, fmt.Sprintf("loss never reached %.4g within the budget (final %.4g)", target, res.FinalLoss))
			d.tte = d.wall.Seconds() // a miss counts as the whole run, not as absent
		}
		if math.IsNaN(loss) || loss > s.lossMax {
			d.errs = append(d.errs, fmt.Sprintf("final loss %.4g, want <= %.4g", loss, s.lossMax))
		}
		return
	}
	if res.Outcome != sgd.Converged {
		d.errs = append(d.errs, fmt.Sprintf("outcome %v, want Converged", res.Outcome))
		d.tte = drawCap.Seconds() // a miss counts as the cap, not as absent
	} else {
		d.tte, d.updToEps = res.TimeToTarget.Seconds(), res.UpdatesToTarget
	}
	// The monitor judges ε on its own 256 rows; the check rows must hold
	// twice that.
	if limit := 2 * target; math.IsNaN(loss) || loss > limit {
		d.errs = append(d.errs, fmt.Sprintf("check loss %.4g, want <= 2*eps*f0 = %.4g", loss, limit))
	}
}

// serveLeash is the ReadFront leash of serve_live: the package default age
// bound, named here because leash violations are counted against it.
var serveLeash = paramvec.ReadLeash{MaxAge: 2 * time.Millisecond}

// serveClient is the serve_live side of a draw: while run trains to ε on m-1
// workers, this goroutine, the one client, predicts in a closed loop (a
// predict caller waits for its reply before sending the next). Latency is
// timed here from raw samples; the server's own histogram has 10 us buckets.
func (s spec) serveClient(in *instance, run *sgd.Running, runSeed uint64, d *draw) error {
	srv, err := serve.New(in.net, run, serve.Config{Store: serve.StoreReadFront, MaxDelay: -1, Leash: serveLeash})
	if err != nil {
		run.Stop()
		return err
	}
	defer srv.Close()
	x := clientInput(in.net.InDim(), runSeed)
	d.lat = make([]float64, 0, 1<<13)
	t0 := time.Now()
loop:
	for {
		select {
		case <-run.Done():
			break loop
		default:
		}
		t := time.Now()
		p, err := srv.Predict(x)
		lat := time.Since(t)
		d.predicts++
		if err != nil || !validPrediction(p) || !(p.Snapshot || p.Final) {
			d.badPreds++
			continue
		}
		d.lat = append(d.lat, float64(lat)/1e3)
		d.staleAgeUs += float64(p.StalenessAge) / 1e3
		d.staleUpdates += float64(p.StalenessUpdates)
		if p.StalenessAge > serveLeash.MaxAge {
			d.overLeash++
		}
	}
	d.window = time.Since(t0).Seconds()
	res := run.Wait()
	d.predStats = srv.Stats()
	// After the run ends the server answers from the final parameters.
	p, err := srv.Predict(x)
	d.predicts++
	want := tensor.ArgMax(in.net.Forward(res.FinalParams, x, in.net.NewWorkspace()))
	if err != nil || !p.Final || p.Class != want {
		d.badPreds++
		d.errs = append(d.errs, fmt.Sprintf("final predict: err=%v final=%v class=%d want %d", err, p.Final, p.Class, want))
	}
	return nil
}

// clientInput is the predict client's input row, from its own rng stream.
func clientInput(dim int, seed uint64) []float64 {
	r := rng.NewStream(seed, 0)
	x := make([]float64, dim)
	for i := range x {
		x[i] = r.Float64()
	}
	return x
}

func validPrediction(p serve.Prediction) bool {
	var sum float64
	for _, q := range p.Probs {
		sum += q
	}
	return math.Abs(sum-1) <= 1e-9 && p.Class == tensor.ArgMax(p.Probs)
}

// pass is everything the timed pass of one workload measured.
type pass struct {
	draws      []*draw
	poolS      float64 // median time to generate the pool and build the model
	measuredS  float64
	attempted  int
	failed     int
	firstError string
}

// warmUp runs one discarded second (less in a short pass) of the workload:
// the first run of a process is slower (page faults on the vector pools, cold
// caches, a vCPU that has not sped up yet).
func warmUp(s spec, pool *instance, seed uint64, seconds float64, mutate func(*sgd.Config)) {
	s.run(s.subset(pool, 1000*seed), 1000*seed, func(c *sgd.Config) {
		boxed(time.Duration(min(seconds/8, 1) * float64(time.Second)))(c)
		if mutate != nil {
			mutate(c)
		}
	})
}

// timedPass runs draws of s for about seconds of measured run time, and at
// least atLeast of them; set-up and the output checks fall outside it. Draw i
// uses seed 1000*seed+i for its rows, its θ0 and its sampling order. A draw
// that returns no result (Start refused the Config) would do so every time,
// so it ends the pass.
func timedPass(s spec, pool *instance, seed uint64, seconds float64, atLeast int, mutate func(*sgd.Config)) *pass {
	p := &pass{}
	var longest float64
	for i := uint64(1); len(p.draws) < atLeast || p.measuredS+longest <= seconds; i++ {
		// Collect the previous draw's vectors before the next one starts, so
		// peak RSS does not depend on the collector's pacing.
		runtime.GC()
		t0 := time.Now()
		in := s.subset(pool, 1000*seed+i)
		selectS := time.Since(t0).Seconds()
		d := s.run(in, 1000*seed+i, mutate)
		d.selectS = selectS
		p.draws = append(p.draws, d)
		p.attempted += 1 + d.predicts
		p.failed += d.badPreds
		if len(d.errs) > 0 {
			p.failed++
			if p.firstError == "" {
				p.firstError = fmt.Sprintf("draw %d: %s", i, d.errs[0])
			}
		}
		if d.res == nil {
			break
		}
		el := d.wall.Seconds()
		p.measuredS += el
		longest = max(longest, el)
		fmt.Printf("  draw %2d: time to eps %.3fs after %d updates, %d updates in %.3fs, check loss %.4g of %.4g\n", i, d.tte, d.updToEps, d.res.TotalUpdates, d.res.Elapsed.Seconds(), d.loss, d.res.InitialLoss)
	}
	return p
}

// ttes are the draws' times to ε (misses included at the cap, absent only
// when a draw returned no result at all).
func (p *pass) ttes() []float64 {
	var out []float64
	for _, d := range p.draws {
		if !math.IsNaN(d.tte) {
			out = append(out, d.tte)
		}
	}
	return out
}

// rateWindow is the shortest stretch of a run a rate is taken over.
const rateWindow = 250 * time.Millisecond

// rates are the applied updates per second over consecutive stretches of at
// least rateWindow, read off the monitor's ticks in Result.Trace, of every
// draw of the pass. The whole-run clocks are not used: Result.Elapsed starts
// ~30 ms into the workers' run (after the monitor's first loss evaluation)
// and a wall clock around Start..Wait adds launch and teardown, which are
// charged to setup_s instead.
func (p *pass) rates() []float64 {
	var out []float64
	for _, d := range p.draws {
		if d.res == nil {
			continue
		}
		pts := d.res.Trace.Points
		n := len(out)
		for from, i := 1, 2; i < len(pts); i++ {
			if dt := pts[i].Elapsed - pts[from].Elapsed; dt >= rateWindow {
				out = append(out, float64(pts[i].Updates-pts[from].Updates)/dt.Seconds())
				from = i
			}
		}
		if len(out) == n && d.wall > 0 { // shorter than one window (smoke sizes)
			out = append(out, float64(d.res.TotalUpdates)/d.wall.Seconds())
		}
	}
	return out
}

// sustainedRate is updates_per_s: the upper quartile of the pass's rates.
// Whatever else runs on the host only ever slows a stretch down (probed on the
// shared two-core VM: the same draw runs 10-35% slower for tens of seconds at
// a time, while a fixed arithmetic loop beside it keeps its speed), so the
// median moves with the share of slowed stretches and the upper quartile does
// not until that share passes three quarters.
func (p *pass) sustainedRate() float64 { return percentile(p.rates(), 75) }

// updatesToEps are the update counts at ε of the draws that got there.
func (p *pass) updatesToEps() []float64 {
	var out []float64
	for _, d := range p.draws {
		if d.updToEps > 0 {
			out = append(out, float64(d.updToEps))
		}
	}
	return out
}

// launches are what each draw costs outside the run's own clock: choosing
// its rows, then the launch inside sgd.Start (θ0, store, pools, server), the
// monitor's first evaluation and teardown.
func (p *pass) launches() []float64 {
	var out []float64
	for _, d := range p.draws {
		if d.res != nil {
			out = append(out, d.selectS+(d.wall-d.res.Elapsed).Seconds())
		}
	}
	return out
}

// endToEnd is the pass as a result: the four end-to-end metrics and failures
// counted against attempts.
func (p *pass) endToEnd() result {
	ms := newMetricSet(endToEnd)
	ms.set("setup_s", p.poolS+median(p.launches()))
	ms.set("time_to_eps_s", median(p.ttes()))
	ms.set("updates_per_s", p.sustainedRate())
	ms.set("peak_rss_mb", peakRSSMiB())
	return result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: ms.metrics()}
}
