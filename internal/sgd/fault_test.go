package sgd

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"leashedsgd/internal/faultinject"
	"leashedsgd/internal/paramvec"
)

// faultConfig is the base config for fault-injection tests: fixed update
// budget, no convergence target, so the exact-budget invariant is the thing
// under test.
func faultConfig(algo Algorithm, workers int) Config {
	cfg := testConfig(algo, workers)
	cfg.EpsilonFrac = 0
	cfg.MaxUpdates = 137
	cfg.MaxTime = 30 * time.Second
	return cfg
}

// TestInjectedWorkerPanicBudgetExact injects worker panics mid-iteration into
// every algorithm and checks the robustness contract: the process survives,
// the faults are reported and respawned, and the run still applies EXACTLY
// MaxUpdates — a crashed iteration's reserved budget is refunded, never
// leaked or double-spent.
func TestInjectedWorkerPanicBudgetExact(t *testing.T) {
	ds := tinyDataset()
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"leashed-s1", func(c *Config) {}},
		{"leashed-s4", func(c *Config) { c.Shards = 4 }},
		{"hogwild", func(c *Config) { c.Algo = Hogwild }},
		{"async", func(c *Config) { c.Algo = Async }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := faultConfig(Leashed, 4)
			tc.mut(&cfg)
			cfg.FaultInjector = faultinject.New(42, faultinject.Rule{
				Site: faultinject.WorkerIter, Kind: faultinject.KindPanic,
				Prob: 1, After: 10, Limit: 3,
			})
			res := runOrFatal(t, cfg, tinyNet(ds), ds)
			if res.TotalUpdates != cfg.MaxUpdates {
				t.Fatalf("TotalUpdates = %d, want exactly %d (faults: %d)",
					res.TotalUpdates, cfg.MaxUpdates, len(res.WorkerFaults))
			}
			if len(res.WorkerFaults) == 0 {
				t.Fatal("no WorkerFaults reported despite injected panics")
			}
			for _, f := range res.WorkerFaults {
				if !strings.Contains(f.Err, "injected panic") {
					t.Fatalf("unexpected fault payload: %q", f.Err)
				}
				if !f.Respawned {
					t.Fatalf("worker %d not respawned at restart %d (cap %d)",
						f.Worker, f.Restart, cfg.WorkerRestarts)
				}
			}
			if res.WorkerRestarts != len(res.WorkerFaults) {
				t.Fatalf("WorkerRestarts = %d, want %d (all faults respawned)",
					res.WorkerRestarts, len(res.WorkerFaults))
			}
		})
	}
}

// panicProblem wraps a problem so that every step its gradient workers
// compute panics on each every-th apply (counted across workers), up to
// limit panics: applyVector for SEQ/ASYNC — inside the shared mutex —
// atomicApply for HOGWILD! and publishChain for Leashed. Each panic fires
// after commit has reserved a budget unit, where faultinject.WorkerIter
// never reaches.
type panicProblem struct {
	problem
	every, limit    int64
	applies, panics atomic.Int64
	// held records the chain head each panicked Leashed publish attempt
	// was folding onto, registered as a reader at the panic.
	held chan *paramvec.Vector
}

func (p *panicProblem) newGradWorker(rt *runCtx, id int) gradWorker {
	return panicGradWorker{p.problem.newGradWorker(rt, id), p}
}

type panicGradWorker struct {
	gradWorker
	p *panicProblem
}

func (g panicGradWorker) compute(pv paramvec.View, velocity []float64) step {
	return panicStep{g.gradWorker.compute(pv, velocity), g.p}
}

type panicStep struct {
	step
	p *panicProblem
}

func (s panicStep) apply(cur *paramvec.Vector) {
	if n := s.p.applies.Add(1); n%s.p.every == 0 && s.p.panics.Add(1) <= s.p.limit {
		if cur != nil {
			s.p.held <- cur
		}
		panic(fmt.Sprintf("test panic at apply %d", n))
	}
}

func (s panicStep) applyVector(v *paramvec.Vector, eta float64) {
	s.apply(nil)
	s.step.applyVector(v, eta)
}

func (s panicStep) atomicApply(shared []uint64, eta float64) {
	s.apply(nil)
	s.step.atomicApply(shared, eta)
}

func (s panicStep) publishChain(store *paramvec.Store, c, a, b int, cur, nv *paramvec.Vector, eta float64) bool {
	s.apply(cur)
	return s.step.publishChain(store, c, a, b, cur, nv, eta)
}

// TestCommitPanicRefundsBudget panics inside commit, with a budget unit
// reserved (and ASYNC's mutex held), in every algorithm. The loop's recovery
// must refund the unit — the run still applies exactly MaxUpdates — and the
// strategy must release its protocol state: ASYNC's unlock keeps the other
// worker and the monitor's snapshot from blocking forever, no Leashed chain
// vector — the heads, and those the panicked attempts held — is left with a
// reader, and no vector a panicked attempt was writing stays live.
func TestCommitPanicRefundsBudget(t *testing.T) {
	ds := tinyDataset()
	cases := []struct {
		name   string
		algo   Algorithm
		shards int
	}{
		{"seq", Seq, 0},
		{"async", Async, 0},
		{"hogwild", Hogwild, 0},
		{"leashed-s1", Leashed, 1},
		{"leashed-s4", Leashed, 4},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := faultConfig(tc.algo, 2)
			cfg.MaxUpdates = 200
			cfg.MaxTime = 10 * time.Second
			cfg.Shards = tc.shards
			dense, err := newDenseProblem(tinyNet(ds), ds)
			if err != nil {
				t.Fatal(err)
			}
			prob := &panicProblem{problem: dense, every: 25, limit: 3, held: make(chan *paramvec.Vector, 3)}
			r, err := launch(cfg, prob, nil)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-r.Done():
			case <-time.After(30 * time.Second):
				t.Fatal("run did not end: a panicked commit left the run blocked")
			}
			res := r.Wait()
			if got := prob.panics.Load(); got < prob.limit {
				t.Fatalf("%d panics fired, want %d", got, prob.limit)
			}
			if res.TotalUpdates != cfg.MaxUpdates {
				t.Fatalf("TotalUpdates = %d, want exactly %d (faults: %d)",
					res.TotalUpdates, cfg.MaxUpdates, len(res.WorkerFaults))
			}
			if res.FinalLiveVectors != 0 {
				t.Fatalf("FinalLiveVectors = %d after the run, want 0: a panicked commit leaked a vector", res.FinalLiveVectors)
			}
			if int64(len(res.WorkerFaults)) != prob.limit || res.WorkerRestarts != len(res.WorkerFaults) {
				t.Fatalf("%d faults, %d restarts, want %d of each", len(res.WorkerFaults), res.WorkerRestarts, prob.limit)
			}
			for _, f := range res.WorkerFaults {
				if !strings.Contains(f.Err, "test panic") || !f.Respawned {
					t.Fatalf("fault %+v: want a respawned test panic", f)
				}
			}
			if st := r.rt.store; st != nil {
				for c := 0; c < st.Chains(); c++ {
					if n := st.ChainPeek(c).Readers(); n != 0 {
						t.Fatalf("chain %d head holds %d readers after the run", c, n)
					}
				}
			}
			close(prob.held)
			for v := range prob.held {
				if n := v.Readers(); n != 0 {
					t.Fatalf("a panicked publish left its chain vector with %d readers", n)
				}
			}
		})
	}
}

// TestWorkerRestartCapStopsRespawn makes every iteration panic: each worker
// slot burns through its restart cap and dies permanently. The run must stop
// as soon as the last slot dies rather than idling out the time limit.
func TestWorkerRestartCapStopsRespawn(t *testing.T) {
	ds := tinyDataset()
	for _, algo := range []Algorithm{Leashed} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			t.Parallel()
			cfg := faultConfig(algo, 3)
			cfg.MaxTime = 10 * time.Second
			cfg.WorkerRestarts = 2
			cfg.FaultInjector = faultinject.New(7, faultinject.Rule{
				Site: faultinject.WorkerIter, Kind: faultinject.KindPanic, Prob: 1,
			})
			res := runOrFatal(t, cfg, tinyNet(ds), ds)
			// Every slot: initial spawn + 2 respawns = 3 faults, the last
			// not respawned.
			wantFaults := cfg.Workers * (cfg.WorkerRestarts + 1)
			if len(res.WorkerFaults) != wantFaults {
				t.Fatalf("WorkerFaults = %d, want %d", len(res.WorkerFaults), wantFaults)
			}
			dead := 0
			for _, f := range res.WorkerFaults {
				if !f.Respawned {
					dead++
				}
			}
			if dead != cfg.Workers {
				t.Fatalf("%d permanently dead slots, want %d", dead, cfg.Workers)
			}
			// No worker ever completes an iteration, so nothing is applied.
			if res.TotalUpdates != 0 {
				t.Fatalf("TotalUpdates = %d with every iteration panicking, want 0",
					res.TotalUpdates)
			}
			if res.Elapsed >= cfg.MaxTime {
				t.Fatalf("all-dead run idled out MaxTime (%v), want early stop", res.Elapsed)
			}
		})
	}
}

// TestInjectedPublishFailureBurst drives the LAU-SPC retry/drop path with
// injected publish failures at Tp=1: half the publish attempts fail, so
// gradients get dropped — yet the budget invariant holds because an
// iteration that published nothing refunds its reservation.
func TestInjectedPublishFailureBurst(t *testing.T) {
	ds := tinyDataset()
	cfg := faultConfig(Leashed, 4)
	cfg.Persistence = 1
	cfg.MaxUpdates = 200
	cfg.FaultInjector = faultinject.New(99, faultinject.Rule{
		Site: faultinject.Publish, Kind: faultinject.KindFail, Prob: 0.5,
	})
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	if res.TotalUpdates != cfg.MaxUpdates {
		t.Fatalf("TotalUpdates = %d, want exactly %d", res.TotalUpdates, cfg.MaxUpdates)
	}
	if res.DroppedUpdates == 0 {
		t.Fatal("expected dropped gradient segments under a 50% publish-failure burst at Tp=1")
	}
	if res.FailedCAS == 0 {
		t.Fatal("expected failed publish attempts to be counted")
	}
}

// TestStragglerStallsDoNotBreakRun injects stalls (not panics) and checks the
// run simply completes its budget — stalls cost wall clock, nothing else.
func TestStragglerStallsDoNotBreakRun(t *testing.T) {
	ds := tinyDataset()
	cfg := faultConfig(Leashed, 4)
	cfg.FaultInjector = faultinject.New(3, faultinject.Rule{
		Site: faultinject.WorkerIter, Kind: faultinject.KindStall,
		Prob: 0.1, Stall: 2 * time.Millisecond,
	})
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	if res.TotalUpdates != cfg.MaxUpdates {
		t.Fatalf("TotalUpdates = %d, want exactly %d", res.TotalUpdates, cfg.MaxUpdates)
	}
	if len(res.WorkerFaults) != 0 {
		t.Fatalf("stalls are not faults, got %d WorkerFaults", len(res.WorkerFaults))
	}
}

// TestDisabledInjectorReportsNothing pins the zero-cost contract's observable
// half: a run without an injector reports no faults, restarts or checkpoints.
func TestDisabledInjectorReportsNothing(t *testing.T) {
	ds := tinyDataset()
	cfg := faultConfig(Leashed, 2)
	res := runOrFatal(t, cfg, tinyNet(ds), ds)
	if len(res.WorkerFaults) != 0 || res.WorkerRestarts != 0 ||
		res.Checkpoints != 0 || res.CheckpointErrors != 0 {
		t.Fatalf("clean run reported fault state: %+v", res)
	}
}
