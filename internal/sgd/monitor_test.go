package sgd

import (
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
