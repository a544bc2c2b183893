package sgd

import (
	"math"
	"testing"
	"time"

	"leashedsgd/internal/nn"
	"leashedsgd/internal/rng"
)

// InitialLoss is f(θ0): evaluated before any worker runs, recorded as trace
// point 0 at 0 updates and the base of the ε target. With one worker and
// every dataset row in the evaluation subset it must equal the network's
// loss at the seeded initialization exactly, for every strategy.
func TestInitialLossIsLossAtTheta0(t *testing.T) {
	ds := tinyDataset()
	net := tinyNet(ds)
	for _, algo := range []Algorithm{Seq, Hogwild, Leashed} {
		t.Run(algo.String(), func(t *testing.T) {
			cfg := testConfig(algo, 1)
			cfg.Seed = 42
			cfg.EpsilonFrac = 0
			cfg.MaxUpdates = 200
			res := runOrFatal(t, cfg, net, ds)

			theta0 := make([]float64, net.ParamCount())
			net.Init(theta0, rng.New(cfg.Seed), nn.DefaultSigma)
			want := net.Loss(theta0, ds, nil, net.NewWorkspace())
			if res.InitialLoss != want {
				t.Fatalf("InitialLoss = %v, Loss(θ0) = %v", res.InitialLoss, want)
			}
			p0 := res.Trace.Points[0]
			if p0.Elapsed != 0 || p0.Updates != 0 || p0.Loss != want {
				t.Fatalf("Trace.Points[0] = %+v, want 0 updates at loss %v", p0, want)
			}
		})
	}
}

// A monitor tick's evaluation allocates nothing once warm, and equals
// Network.Loss over the subset's rows.
func TestDenseLossEvalWarmAllocs(t *testing.T) {
	ds := tinyDataset()
	net := tinyNet(ds)
	cfg := testConfig(Leashed, 2)
	cfg = cfg.withDefaults()
	prob := &denseProblem{net: net, ds: ds}
	rt := newRuntime(cfg, prob)
	params := make([]float64, net.ParamCount())
	net.Init(params, rng.New(3), nn.DefaultSigma)

	eval := prob.newLossEval(rt)
	if got, want := eval(params), net.Loss(params, ds, rt.evalSubset(), net.NewWorkspace()); got != want {
		t.Fatalf("monitor evaluator = %v, Loss over the subset = %v", got, want)
	}
	if allocs := testing.AllocsPerRun(20, func() { eval(params) }); allocs != 0 {
		t.Fatalf("warm monitor evaluation allocates %v objects/op, want 0", allocs)
	}
}

// slowSnapshot is a strategy whose snapshot takes wait, as ASYNC's does
// while its workers hold the mutex. The monitor calls nothing else on it.
type slowSnapshot struct {
	strategy
	wait time.Duration
}

func (s slowSnapshot) snapshot([]float64) { time.Sleep(s.wait) }

// A tick's loss is the loss of θ as the snapshot copied it, so its clock
// reading is taken after the copy: a snapshot that waits 30 ms must not
// report the target reached before that wait ended.
func TestTimeToTargetCountsSnapshotWait(t *testing.T) {
	const wait = 30 * time.Millisecond
	ds := tinyDataset()
	cfg := testConfig(Leashed, 1)
	cfg.EvalEvery = time.Millisecond
	cfg = cfg.withDefaults()
	rt := newRuntime(cfg, &denseProblem{net: tinyNet(ds), ds: ds})
	rt.initialLoss = 1
	rt.evalLoss = func([]float64) float64 { return 0.1 } // below ε on the first tick
	rt.start = time.Now()
	res := rt.monitor(slowSnapshot{wait: wait})
	if res.Outcome != Converged {
		t.Fatalf("outcome %v, want Converged on the first tick", res.Outcome)
	}
	if res.TimeToTarget < wait {
		t.Fatalf("TimeToTarget = %v, want ≥ the %v the snapshot took", res.TimeToTarget, wait)
	}
}

// laggingSnapshot is a strategy whose snapshots lag the updates: the n-th
// call fills θ with the value n, as a monitor tick that copied θ before the
// last updates landed and the re-snapshot after quiesce would see it.
type laggingSnapshot struct {
	strategy
	calls *int
}

func (s laggingSnapshot) snapshot(dst []float64) {
	*s.calls++
	for i := range dst {
		dst[i] = float64(*s.calls)
	}
}
func (laggingSnapshot) cleanup()     {}
func (laggingSnapshot) fill(*Result) {}

// FinalLoss is the loss of FinalParams, bit for bit, even when the
// monitor's last tick evaluated an earlier snapshot than the one the run
// ends with; the outcome and the time to target stay the monitor's.
func TestFinalLossIsLossOfFinalParams(t *testing.T) {
	ds := tinyDataset()
	cfg := testConfig(Leashed, 1)
	cfg.EvalEvery = time.Millisecond
	cfg = cfg.withDefaults()
	rt := newRuntime(cfg, &denseProblem{net: tinyNet(ds), ds: ds})
	rt.initialLoss = 1
	rt.evalLoss = func(p []float64) float64 { return 0.4 / p[0] } // θ = 1: below ε on the first tick
	rt.start = time.Now()
	calls := 0
	r := &Running{rt: rt, st: laggingSnapshot{calls: &calls}, done: make(chan struct{})}
	r.finish()
	res := r.Wait()
	if calls != 2 || res.FinalParams[0] != 2 {
		t.Fatalf("%d snapshots, FinalParams[0] = %v: want the monitor's and the final one", calls, res.FinalParams[0])
	}
	if want := rt.evalLoss(res.FinalParams); math.Float64bits(res.FinalLoss) != math.Float64bits(want) {
		t.Fatalf("FinalLoss = %v, loss of FinalParams %v", res.FinalLoss, want)
	}
	if res.Outcome != Converged || res.Trace.Points[len(res.Trace.Points)-1].Loss != 0.4 {
		t.Fatalf("outcome %v, trace %+v: the monitor's decision must stand", res.Outcome, res.Trace.Points)
	}
}
