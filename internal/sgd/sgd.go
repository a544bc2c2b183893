// Package sgd implements the paper's algorithm family over the
// ParameterVector abstraction: sequential SGD (SEQ), lock-based AsyncSGD
// (Algorithm 2), HOGWILD! (Algorithm 4), and Leashed-SGD (Algorithm 3) with
// its persistence bound Tp — together with the instrumentation the
// evaluation needs: ε-convergence / Diverge / Crash classification,
// wall-clock and statistical efficiency, staleness distributions, Tc/Tu
// timing and ParameterVector memory accounting.
package sgd

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"leashedsgd/internal/data"
	"leashedsgd/internal/faultinject"
	"leashedsgd/internal/metrics"
	"leashedsgd/internal/nn"
	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/rng"
	"leashedsgd/internal/tensor"
)

// Algorithm selects the parallel SGD variant.
type Algorithm int

const (
	// Seq is sequential SGD — one worker, no synchronization overhead
	// beyond the monitor's snapshot lock.
	Seq Algorithm = iota
	// Async is the standard lock-based AsyncSGD of Algorithm 2: reads and
	// updates of the shared vector are mutually exclusive.
	Async
	// Hogwild is Algorithm 4: no inter-thread coordination; reads and
	// component-wise updates interleave freely (component-atomic here, as
	// Go forbids racing float writes — see internal/atomicx).
	Hogwild
	// Leashed is Algorithm 3: lock-free consistent AsyncSGD with
	// persistence bound Tp (Config.Persistence).
	Leashed
)

// String returns the evaluation-section name of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Seq:
		return "SEQ"
	case Async:
		return "ASYNC"
	case Hogwild:
		return "HOG"
	case Leashed:
		return "LSH"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// PersistenceInf is the Persistence value meaning Tp = ∞ (retry until the
// CAS succeeds; the LSH_ps∞ configuration).
const PersistenceInf = -1

// Config describes one training run.
type Config struct {
	Algo      Algorithm
	Workers   int     // m
	Eta       float64 // step size η
	BatchSize int

	// Persistence is the LAU-SPC bound Tp: number of failed CAS attempts
	// tolerated before the gradient is dropped. 0 and 1 are the paper's
	// LSH_ps0/LSH_ps1; PersistenceInf is LSH_ps∞. Ignored by other
	// algorithms.
	Persistence int

	// Shards splits the published parameter vector into S contiguous
	// shards, each with its own lock-free latest-pointer chain, pool and
	// sequence counter, so Leashed publish CAS contention scales as ~1/S
	// (extension; see internal/paramvec.Store). 0 or 1 is one
	// chain: the paper's exact single published pointer. Only Leashed-SGD
	// uses it; SEQ, ASYNC and HOGWILD! ignore it and report one
	// shard. Values above the parameter dimension clamp.
	// Gradient reads stay zero-copy at every shard count: workers lease
	// the per-shard published buffers (paramvec.Lease) and compute against
	// them in place. The remaining trade-off is ordering only — a sharded
	// vector has no single totally-ordered history, so a leased read may
	// mix per-shard versions (cross-shard skew); each read is classified
	// by seqlock validation over the chains it read into
	// Result.ConsistentReads/MixedReads, and staleness is measured per
	// shard.
	Shards int

	Seed uint64

	// Stop conditions. EpsilonFrac sets the convergence target as a
	// fraction of the initial loss (the paper's ε, e.g. 0.5 = 50%);
	// 0 disables the target. MaxUpdates and MaxTime bound the run;
	// exceeding either without reaching the target classifies the run
	// as Diverged, or as Finished when no target was set. A MaxUpdates
	// budget is exact: workers reserve budget atomically before an update
	// becomes visible, so a run that ends by budget exhaustion applies
	// exactly MaxUpdates updates (Result.TotalUpdates == MaxUpdates — the
	// deterministic-replay contract).
	EpsilonFrac float64
	MaxUpdates  int64
	MaxTime     time.Duration

	// EvalEvery is the monitor's loss-sampling cadence (default 25ms). Each
	// sample evaluates min(256, len) dataset rows.
	EvalEvery time.Duration

	// Momentum, when non-zero, enables the per-worker heavy-ball
	// extension: v ← µv + ∇f, step taken along v. 0 = plain SGD (paper);
	// must be in [0, 1).
	Momentum float64

	// TauAdaptiveBeta, when non-zero, enables the staleness-adaptive step
	// size extension (the direction of MindTheStep-AsyncPSGD, the paper's
	// ref. [4], which Sec. VI calls orthogonal to the synchronization
	// mechanisms studied): the update with observed staleness τ̂ is
	// applied with η/(1 + β·τ̂) instead of η. Supported by ASYNC, HOG and
	// Leashed-SGD; must be non-negative and finite.
	TauAdaptiveBeta float64

	// SampleTiming records per-iteration Tc/Tu durations (Fig. 9).
	SampleTiming bool

	// Checkpoint enables mid-run periodic checkpointing: on cadence the
	// monitor takes a consistent parameter snapshot and writes a rotated,
	// fsync'd checkpoint carrying the resume state (cumulative update
	// count, derived RNG stream seed, shard count S, persistence bound Tp).
	// Resume restarts a crashed or killed run from the newest valid one. Inactive unless both Every and Path are set.
	Checkpoint CheckpointConfig

	// WorkerRestarts caps how many times the supervisor respawns one
	// worker slot after recovered panics (crash isolation): 0 means the
	// default (DefaultWorkerRestarts), negative disables respawning. A
	// crashed worker's in-flight iteration is rolled back — its budget
	// reservation refunded, its iteration-scoped leases and locks released
	// — and recorded in Result.WorkerFaults, so a crash costs throughput
	// but never the budget invariant.
	WorkerRestarts int

	// FaultInjector, when non-nil, threads the deterministic chaos harness
	// (internal/faultinject) through the run: worker panics and straggler
	// stalls per iteration, publish-failure bursts per LAU-SPC attempt,
	// torn mid-run checkpoint writes. Nil — the default — costs the hot
	// path one pointer check and nothing else.
	FaultInjector *faultinject.Injector
}

// DefaultWorkerRestarts is the per-worker respawn cap when
// Config.WorkerRestarts is unset.
const DefaultWorkerRestarts = 4

// Validate reports the first rule c breaks. Zero means "default" for every
// numeric field; out-of-range and non-finite values are rejected rather than
// coerced. Start, StartSparse, Run and Resume call it before anything runs.
func (c Config) Validate() error {
	switch {
	case c.Algo < Seq || c.Algo > Leashed:
		return fmt.Errorf("sgd: unknown algorithm %v", c.Algo)
	case !(c.Eta > 0) || math.IsInf(c.Eta, 1):
		return fmt.Errorf("sgd: step size must be positive and finite, got %v", c.Eta)
	case c.Persistence < PersistenceInf:
		return fmt.Errorf("sgd: persistence bound %d is below PersistenceInf (-1)", c.Persistence)
	case !(c.EpsilonFrac >= 0 && c.EpsilonFrac < 1):
		return fmt.Errorf("sgd: EpsilonFrac must be in [0, 1), got %v", c.EpsilonFrac)
	case !(c.Momentum >= 0 && c.Momentum < 1):
		return fmt.Errorf("sgd: Momentum must be in [0, 1), got %v", c.Momentum)
	case !(c.TauAdaptiveBeta >= 0) || math.IsInf(c.TauAdaptiveBeta, 1):
		return fmt.Errorf("sgd: TauAdaptiveBeta must be non-negative and finite, got %v", c.TauAdaptiveBeta)
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"Workers", int64(c.Workers)}, {"BatchSize", int64(c.BatchSize)}, {"Shards", int64(c.Shards)},
		{"MaxUpdates", c.MaxUpdates}, {"MaxTime", int64(c.MaxTime)}, {"EvalEvery", int64(c.EvalEvery)},
	} {
		if f.v < 0 {
			return fmt.Errorf("sgd: %s must not be negative, got %d", f.name, f.v)
		}
	}
	return nil
}

// withDefaults returns cfg with unset knobs filled in.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Algo == Seq {
		c.Workers = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 25 * time.Millisecond
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MaxUpdates <= 0 && c.MaxTime <= 0 {
		c.MaxTime = 10 * time.Second
	}
	if c.WorkerRestarts == 0 {
		c.WorkerRestarts = DefaultWorkerRestarts
	}
	return c
}

// Outcome classifies a finished run the way the paper's figures do.
type Outcome int

const (
	// Converged: the loss reached ε·f(θ0) within budget.
	Converged Outcome = iota
	// Diverged: budget exhausted without reaching the target.
	Diverged
	// Crashed: numerical instability (NaN/Inf loss or parameters).
	Crashed
	// Finished: a run with no ε target (EpsilonFrac = 0) ended by its
	// budget, time limit or Stop without crashing. It says nothing about
	// the loss reached.
	Finished
)

func (o Outcome) String() string {
	switch o {
	case Converged:
		return "Converged"
	case Diverged:
		return "Diverged"
	case Crashed:
		return "Crashed"
	case Finished:
		return "Finished"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Result carries every measurement of one run.
type Result struct {
	Outcome     Outcome
	InitialLoss float64
	TargetLoss  float64
	// FinalLoss is the monitor's loss of FinalParams.
	FinalLoss float64

	// Convergence rate (wall-clock) and statistical efficiency
	// (updates) to the ε target; zero when not converged.
	TimeToTarget    time.Duration
	UpdatesToTarget int64

	// TotalUpdates counts the updates actually applied/published. When the
	// run ends by exhausting a MaxUpdates budget this equals MaxUpdates
	// exactly (budget units are reserved atomically before an update
	// becomes visible), which is what makes bounded runs replayable.
	TotalUpdates int64
	Elapsed      time.Duration

	// Trace is the loss-over-time record; Staleness the merged per-worker
	// staleness histogram. Tc samples the gradient-computation phase and
	// Tu the update phase, one sample per iteration each, with a uniform
	// definition across algorithms: Tu covers the whole publish protocol
	// of the iteration — lock acquisition for ASYNC, all LAU-SPC CAS
	// attempts (up to Tp retries) for the Leashed variants, the
	// component-atomic sweep for HOGWILD!. (Pre-unified-loop versions
	// sampled single-chain Leashed per CAS attempt and excluded ASYNC's
	// lock wait; the unified loop measures the synchronization cost as part
	// of the update phase, which is the quantity the paper's Tc/Tu model
	// reasons about.)
	Trace     metrics.Trace
	Staleness *metrics.Hist
	Tc, Tu    *metrics.DurationSampler

	// FinalParams is the parameter snapshot at the moment the run ended
	// (whatever the outcome) — the trained model, ready for evaluation or
	// checkpointing.
	FinalParams []float64

	// Leashed-SGD contention measurements. For sharded runs these are the
	// totals across shards; a "failed CAS" is one shard-publish attempt
	// that lost the head — at the CAS itself or, for a dense step, detected
	// mid-pass, where the attempt stops without issuing the CAS it could
	// only lose (paramvec.Vector.UpdateFrom) — and a "dropped update" is
	// one shard segment abandoned after exhausting the persistence bound.
	FailedCAS      int64
	DroppedUpdates int64

	// Read-consistency classification of the leased zero-copy gradient
	// reads (Leashed-SGD only; zero elsewhere), over the chains each step
	// read: every chain for a dense step, only the chains its examples
	// index for a sparse one. A read counts as Consistent when the seqlock
	// validation after the gradient proves no chain it read published
	// during the read window — a true global state of those chains; a read
	// of one chain (every read on a single-chain store) is consistent by
	// construction. MixedReads counts reads that may mix per-shard versions
	// (the cross-shard skew the sharded trade-off admits). ConsistentReads
	// + MixedReads is the total number of gradient reads taken through the
	// leased view.
	ConsistentReads int64
	MixedReads      int64

	// Per-shard contention breakdown (len = Shards; nil for algorithms
	// that ignore the sharding knob: SEQ, ASYNC and HOGWILD!).
	// ShardPublishes counts successful shard publishes; ShardFailedCAS is
	// FailedCAS per shard, lost attempts of both kinds; ShardStalenessMean
	// is the mean per-shard publish staleness, measured in that shard's
	// own sequence numbers. ShardStaleReads counts, per
	// shard, the leased reads during which THAT shard's chain republished
	// (the per-chain decomposition of MixedReads; a single read that saw
	// k chains advance contributes to k entries).
	Shards             int
	ShardFailedCAS     []int64
	ShardDropped       []int64
	ShardPublishes     []int64
	ShardStalenessMean []float64
	ShardStaleReads    []int64

	// TouchedComponents counts the parameter components written across all
	// successful publishes (a dense publish writes its whole chain range;
	// a sparse scatter-publish only the components its nonzeros hit), and
	// ShardTouched is its per-shard breakdown (nil when the per-shard
	// contract keeps the other Shard* slices nil). TouchedComponents /
	// (Publishes × chain length) is the publish occupancy — 1.0 for dense
	// steps, NNZ-driven ≪ 1 for sparse ones — which `leashed train` and
	// examples/sparse report next to FailedCAS.
	TouchedComponents int64
	ShardTouched      []int64

	// Publishes counts successful shard publishes over the whole run.
	// Equal to TotalUpdates for single-chain runs. It is the denominator of the
	// cross-configuration contention rate (FailedPerPublish), since a
	// sharded iteration performs up to S publishes where the single chain
	// performs one.
	Publishes int64

	// ParameterVector memory accounting (Fig. 10): buffers live at peak
	// and at exit, plus total heap allocations (allocations ≪ checkouts
	// demonstrates recycling).
	PeakLiveVectors  int64
	FinalLiveVectors int64
	BufferAllocs     int64
	BufferReuses     int64

	// MemSamples is the continuous live-buffer gauge sampled at every
	// monitor tick (aligned with Trace.Points[1:]), reproducing the
	// paper's ps-based continuous memory measurement.
	MemSamples []int64

	// Fault-tolerance record. WorkerFaults lists every recovered worker
	// panic (injected or genuine) in recovery order; WorkerRestarts counts
	// the respawns the supervisor performed across all slots. Checkpoints /
	// CheckpointErrors count the mid-run checkpoint saves that succeeded and
	// failed (a failed save never disturbs previously rotated files).
	// ResumedFrom is the cumulative update count of the checkpoint this run
	// resumed from (0 for a fresh run), so across a crash+resume lineage
	// ResumedFrom + TotalUpdates accounts for the original budget exactly.
	WorkerFaults     []WorkerFault
	WorkerRestarts   int
	Checkpoints      int
	CheckpointErrors int
	ResumedFrom      int64
}

// MeanLiveVectors is the time-averaged live ParameterVector count.
func (r *Result) MeanLiveVectors() float64 {
	if len(r.MemSamples) == 0 {
		return float64(r.FinalLiveVectors)
	}
	var sum int64
	for _, v := range r.MemSamples {
		sum += v
	}
	return float64(sum) / float64(len(r.MemSamples))
}

// FailedPerPublish is the contention rate comparable across shard counts:
// attempts that lost the head (at the CAS or detected mid-pass) per
// successful shard publish. Stopping a lost attempt early makes it cheaper,
// not rarer, so the rate keeps its meaning. Zero when nothing published.
func (r *Result) FailedPerPublish() float64 {
	if r.Publishes == 0 {
		return 0
	}
	return float64(r.FailedCAS) / float64(r.Publishes)
}

// TimePerUpdate is the paper's computational-efficiency metric.
func (r *Result) TimePerUpdate() time.Duration {
	if r.TotalUpdates == 0 {
		return 0
	}
	return r.Elapsed / time.Duration(r.TotalUpdates)
}

// runCtx is the per-run shared state between workers and the monitor.
type runCtx struct {
	cfg  Config
	prob problem
	d    int

	updates  atomic.Int64 // applied/published updates (the global order)
	reserved atomic.Int64 // MaxUpdates budget claims: applied + in-flight, never above the budget
	stop     atomic.Bool

	// done is closed the moment the applied-update count reaches MaxUpdates
	// exactly, waking the monitor immediately instead of at its next tick.
	done     chan struct{}
	doneOnce sync.Once

	// stopped is closed alongside stop so the monitor, parked in its select,
	// wakes immediately instead of at its next tick. Workers on the hot path
	// poll the cheaper stop flag.
	stopped  chan struct{}
	stopOnce sync.Once

	// pool checks out the workers' private buffers (gradients, read
	// copies); the published chains live in the Leashed run's chain store.
	pool *paramvec.Pool

	// store is the Leashed run's publication store, built at start for the
	// whole run (newLeashedStrategy). nil for the other algorithms.
	store *paramvec.Store

	// inj is the optional deterministic fault injector (nil = disabled;
	// every instrumented site guards with one pointer check).
	inj *faultinject.Injector

	// prior is the cumulative update count inherited from the checkpoint a
	// resumed run restarted from; 0 for a fresh run. The budget fields above
	// count THIS run only — prior+updates is the lineage total.
	prior int64

	// ckpt is the mid-run checkpoint writer state (nil when checkpointing
	// is off); owned by the monitor goroutine.
	ckpt *ckptState

	// The monitor's inputs, fixed by launch before any worker exists: the
	// problem's loss evaluator, its value at the parameters the workers
	// start from (Result.InitialLoss), and the instant they were launched
	// (the zero of Elapsed and TimeToTarget).
	evalLoss    func(params []float64) float64
	initialLoss float64
	start       time.Time

	// Worker-fault record, appended by supervisors as panics are recovered.
	faultMu  sync.Mutex
	faults   []WorkerFault
	respawns int
	dead     int // worker slots permanently out of restarts

	// Per-worker instrumentation, merged after the run.
	hists []*metrics.Hist
	tcs   []*metrics.DurationSampler
	tus   []*metrics.DurationSampler
}

// evalRows caps the rows one monitor tick evaluates: beyond a few hundred
// the loss estimate is no better and the monitor starts to cost throughput.
const evalRows = 256

// stalenessBound sizes the staleness histogram of an m-worker run.
func stalenessBound(m int) int { return 8*m + 64 }

func newRuntime(cfg Config, prob problem) *runCtx {
	rt := &runCtx{
		cfg:     cfg,
		prob:    prob,
		d:       prob.dim(),
		pool:    paramvec.NewPool(prob.dim()),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	rt.hists = make([]*metrics.Hist, cfg.Workers)
	rt.tcs = make([]*metrics.DurationSampler, cfg.Workers)
	rt.tus = make([]*metrics.DurationSampler, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		rt.hists[i] = metrics.NewHist(stalenessBound(cfg.Workers))
		rt.tcs[i] = &metrics.DurationSampler{}
		rt.tus[i] = &metrics.DurationSampler{}
	}
	rt.inj = cfg.FaultInjector
	if cfg.Checkpoint.active() {
		rt.ckpt = newCkptState(cfg.Checkpoint, rt.d)
	}
	return rt
}

// recordFault appends one recovered worker panic to the run's fault record.
func (rt *runCtx) recordFault(f WorkerFault) {
	rt.faultMu.Lock()
	rt.faults = append(rt.faults, f)
	if f.Respawned {
		rt.respawns++
	}
	rt.faultMu.Unlock()
}

// budgetExhausted reports whether the update budget is spent (in applied
// updates — in-flight reservations do not count, so a true result is final).
func (rt *runCtx) budgetExhausted() bool {
	return rt.cfg.MaxUpdates > 0 && rt.updates.Load() >= rt.cfg.MaxUpdates
}

// budgetFullyReserved reports whether every budget unit is claimed — applied
// or held by an in-flight update. Workers check it before starting an
// iteration so they don't burn whole gradient passes that are guaranteed to
// fail reservation while the final in-flight updates drain; they yield
// instead, and resume only if a claim is refunded.
func (rt *runCtx) budgetFullyReserved() bool {
	return rt.cfg.MaxUpdates > 0 && rt.reserved.Load() >= rt.cfg.MaxUpdates
}

// reserveUpdate claims one unit of the MaxUpdates budget BEFORE the update is
// made visible. The claim is a bounded CAS increment, so the total of applied
// plus in-flight updates can never exceed the budget — this is what makes
// TotalUpdates == MaxUpdates exact instead of overshooting by up to m−1 when
// several workers pass a load-then-add check simultaneously. Returns false
// when the budget is fully claimed; an unbounded run always succeeds.
func (rt *runCtx) reserveUpdate() bool {
	max := rt.cfg.MaxUpdates
	if max <= 0 {
		return true
	}
	for {
		cur := rt.reserved.Load()
		if cur >= max {
			return false
		}
		if rt.reserved.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// refundUpdate returns a reservation whose update was never applied (gradient
// dropped by the persistence bound, or abandoned on stop), reopening that
// budget unit to the other workers.
func (rt *runCtx) refundUpdate() {
	if rt.cfg.MaxUpdates > 0 {
		rt.reserved.Add(-1)
	}
}

// applyUpdate advances the global applied-update order under a held
// reservation and wakes the monitor the instant the budget is exactly spent.
// Because applied ≤ reserved ≤ MaxUpdates at all times, the done signal
// implies no in-flight update can be applied afterwards.
func (rt *runCtx) applyUpdate() int64 {
	n := rt.updates.Add(1)
	if max := rt.cfg.MaxUpdates; max > 0 && n >= max {
		rt.doneOnce.Do(func() { close(rt.done) })
	}
	return n
}

// numShards returns the effective shard count: Config.Shards clamped to
// [1, d]. Only Leashed-SGD consumes it; every other algorithm runs on one
// chain.
func (rt *runCtx) numShards() int {
	if rt.cfg.Algo != Leashed {
		return 1
	}
	return min(max(rt.cfg.Shards, 1), rt.d)
}

// liveVectors is the live-buffer gauge in full-vector equivalents: the
// full-dimension pool's count plus the publication store's chain-buffer
// count divided by the chain count, rounded up (C chain buffers hold one
// vector's worth of parameters).
func (rt *runCtx) liveVectors() int64 {
	n := rt.pool.Live()
	if st := rt.store; st != nil {
		c := int64(st.Chains())
		n += (st.Live() + c - 1) / c
	}
	return n
}

// Run executes one training run and returns its measurements. The dataset
// must validate; the network's input dimension must match the dataset.
// Run is Start+Wait; use Start directly to read the live parameters while
// the run is in flight (the serving tier).
func Run(cfg Config, net *nn.Network, ds *data.Dataset) (*Result, error) {
	r, err := Start(cfg, net, ds)
	if err != nil {
		return nil, err
	}
	return r.Wait(), nil
}

// evalSubset picks the monitor's loss-evaluation rows: every row when the
// dataset has at most evalRows, otherwise evalRows rows sampled without
// replacement with the run's seeded RNG (stream index Workers, after the
// per-worker sampler streams 0..Workers-1). The subset is fixed for the whole
// run so successive loss samples are comparable; sampling it — rather than
// taking the first evalRows rows — avoids class-biased loss on
// class-ordered datasets (typical for IDX dumps).
func (rt *runCtx) evalSubset() []int {
	n := rt.prob.dataLen()
	idx := make([]int, n)
	if k := evalRows; k < n {
		rng.NewStream(rt.cfg.Seed, rt.cfg.Workers).Perm(idx)
		return idx[:k]
	}
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// monitor samples the loss on a cadence, maintains the trace, and decides
// the outcome. It runs in the calling goroutine until a stop condition.
// Besides the EvalEvery ticker it wakes on rt.done (closed by the worker
// that applies the final budgeted update), on a MaxTime deadline timer, and
// on rt.stopped (closed by Running.Stop), so budget-, time- and
// stop-bounded endings are noticed immediately instead of at the next tick —
// which used to inflate Elapsed/TimeToTarget by up to one EvalEvery
// interval. The monitor also owns the mid-run checkpoint cadence: on
// Config.Checkpoint.Every it takes a consistent snapshot through the
// strategy and writes a rotated checkpoint (checkpointing.go).
func (rt *runCtx) monitor(st strategy) *Result {
	cfg := rt.cfg
	snapshot := st.snapshot
	evalLoss, start := rt.evalLoss, rt.start
	buf := make([]float64, rt.d)

	res := &Result{}
	res.InitialLoss = rt.initialLoss
	res.TargetLoss = cfg.EpsilonFrac * res.InitialLoss
	res.FinalLoss = res.InitialLoss
	res.Trace.Add(0, 0, res.InitialLoss)

	finish := func() *Result {
		res.FinalParams = append([]float64(nil), buf...)
		return res
	}

	ticker := time.NewTicker(cfg.EvalEvery)
	defer ticker.Stop()
	var deadline <-chan time.Time
	if cfg.MaxTime > 0 {
		timer := time.NewTimer(cfg.MaxTime)
		defer timer.Stop()
		deadline = timer.C
	}
	budgetDone := rt.done
	stopped := rt.stopped
	for {
		select {
		case <-ticker.C:
		case <-budgetDone:
			budgetDone = nil // closed; the budget check below ends the run
		case <-deadline:
			deadline = nil // fired; the elapsed check below ends the run
		case <-stopped:
			stopped = nil // external Stop; the stop check below ends the run
		}
		// The clock is read after the snapshot, beside the update count: a
		// snapshot that waits (ASYNC's takes the shared mutex) must book its
		// loss at the moment θ was copied, not at the moment it was asked for.
		snapshot(buf)
		elapsed := time.Since(start)
		upd := rt.updates.Load()
		loss := evalLoss(buf)
		res.Trace.Add(elapsed, upd, loss)
		res.MemSamples = append(res.MemSamples, rt.liveVectors())
		res.FinalLoss = loss
		res.Elapsed = elapsed

		// Crash = numerical instability (paper Sec. V-2): NaN/Inf in the
		// loss or parameters, or loss exploding orders of magnitude above
		// the initialization plateau (the softmax clamp keeps the
		// cross-entropy finite even when the parameters have blown up).
		blowUp := 20*res.InitialLoss + 10
		if loss != loss || loss-loss != 0 || loss > blowUp || tensor.HasNaNOrInf(buf) {
			res.Outcome = Crashed
			return finish()
		}
		if cfg.EpsilonFrac > 0 && loss <= res.TargetLoss {
			res.Outcome = Converged
			res.TimeToTarget = elapsed
			res.UpdatesToTarget = upd
			return finish()
		}
		if (cfg.MaxTime > 0 && elapsed >= cfg.MaxTime) || rt.budgetExhausted() || rt.stop.Load() {
			res.Outcome = Diverged
			if cfg.EpsilonFrac == 0 {
				// No target was set: there is nothing to converge to,
				// only a profiling run that ended.
				res.Outcome = Finished
			}
			return finish()
		}
		// Checkpoint cadence — only for a run that is still going, so a
		// crashed or finished state is never the newest checkpoint.
		if ck := rt.ckpt; ck != nil && elapsed-ck.last >= cfg.Checkpoint.Every {
			ck.last = elapsed
			rt.writeCheckpoint(st, loss)
		}
	}
}
