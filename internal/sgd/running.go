// Live training runs: Start launches the same machinery Run wraps, but
// returns a handle while the workers are still publishing, so readers
// outside the worker pool — the serving tier in internal/serve — can lease
// the live parameters mid-run. Run is Start+Wait; every post-run
// measurement contract is unchanged.
package sgd

import (
	"fmt"
	"sync"
	"time"

	"leashedsgd/internal/data"
	"leashedsgd/internal/metrics"
	"leashedsgd/internal/nn"
	"leashedsgd/internal/paramvec"
)

// Running is a live training run started by Start. Exactly one goroutine may
// call Wait; ReadParams and Stop are safe from any number of goroutines,
// concurrently with the run and with each other.
type Running struct {
	rt *runCtx
	st strategy
	wg sync.WaitGroup

	// readMu orders outside readers and ReadFronts against the end-of-run
	// store teardown: closed flips, final is set and the registered fronts
	// are taken under the write lock, and each front is frozen onto final,
	// all BEFORE cleanup retires the store — a reader sees either the live
	// store or the final parameters, never a retiring store, and no front
	// folds from the store once it retires.
	readMu sync.RWMutex
	closed bool
	final  []float64
	fronts []*paramvec.ReadFront

	res  *Result
	done chan struct{}
}

// Start validates the dense configuration exactly like Run, evaluates f(θ0)
// and launches the workers and monitor, returning a handle on the live run.
// StartSparse and Resume share its representation-independent half, launch.
func Start(cfg Config, net *nn.Network, ds *data.Dataset) (*Running, error) {
	prob, err := newDenseProblem(net, ds)
	if err != nil {
		return nil, err
	}
	return launch(cfg, prob, nil)
}

// newDenseProblem checks that ds is valid and fits net: the dense
// representation's half of Start's and Resume's validation.
func newDenseProblem(net *nn.Network, ds *data.Dataset) (*denseProblem, error) {
	if net == nil || ds == nil {
		return nil, fmt.Errorf("sgd: nil network or dataset")
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if net.InDim() != ds.Dim() {
		return nil, fmt.Errorf("sgd: network input %d != dataset dim %d", net.InDim(), ds.Dim())
	}
	if net.OutDim() != ds.Classes {
		return nil, fmt.Errorf("sgd: network output %d != dataset classes %d", net.OutDim(), ds.Classes)
	}
	return &denseProblem{net: net, ds: ds}, nil
}

// resumeState carries a loaded checkpoint into launch: the parameters to
// start from instead of θ0, and the lineage's cumulative update count (the
// budget already spent before this process).
type resumeState struct {
	params []float64
	prior  int64
}

// launch is the representation-generic launch: one code path builds the
// runtime, initializes θ0 through the problem (or takes a resumed
// checkpoint's parameters, rs), and wires the strategy — every algorithm ×
// every gradient representation, no per-algorithm forks.
func launch(cfg Config, prob problem, rs *resumeState) (*Running, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rt := newRuntime(cfg, prob)

	// θ0 is representation-owned: N(0, 0.01) for dense networks (the paper's
	// rand_init), the zero vector for sparse logistic regression — unless a
	// checkpoint resumes the lineage, in which case its parameters are the
	// starting state and its cumulative count offsets the budget accounting.
	initVec := paramvec.New(rt.pool)
	if rs != nil {
		copy(initVec.Theta, rs.params)
		rt.prior = rs.prior
	} else {
		rt.prob.initParams(initVec, cfg.Seed)
	}
	// f(θ0) — or f of the resumed parameters — is evaluated here, before
	// any worker exists and before a strategy takes initVec over: it is
	// Trace.Points[0] at 0 updates and the base of the ε target, so it must
	// not see a parameter vector the workers have already moved.
	rt.evalLoss = rt.prob.newLossEval(rt)
	rt.initialLoss = rt.evalLoss(initVec.Theta)

	// One store-parameterized worker loop runs every algorithm; the
	// strategy carries what differs (read protocol, publish protocol,
	// snapshot and cleanup). See loop.go. Validate has ruled out any other
	// Algo.
	var st strategy
	switch cfg.Algo {
	case Seq, Async:
		st = rt.newAsyncStrategy(initVec)
	case Hogwild:
		st = rt.newHogwildStrategy(initVec)
	case Leashed:
		st = rt.newLeashedStrategy(initVec)
	}
	r := &Running{rt: rt, st: st, done: make(chan struct{})}
	rt.start = time.Now()
	rt.runWorkers(&r.wg, st)
	go r.finish()
	return r, nil
}

// finish runs the monitor, quiesces the workers, closes the live-read window
// and fills the Result — the post-launch half of the old Run body.
func (r *Running) finish() {
	rt, st := r.rt, r.st
	cfg := rt.cfg
	res := rt.monitor(st)
	rt.stop.Store(true)
	rt.stopOnce.Do(func() { close(rt.stopped) })
	r.wg.Wait()
	// Re-snapshot after the workers have quiesced: the monitor's last
	// snapshot can predate updates that were in flight when the stop
	// condition fired, and FinalParams must be the true final state
	// (e.g. exactly MaxUpdates applications for deterministic replay).
	// FinalLoss follows it: the monitor's last loss is that of its own,
	// possibly earlier, snapshot. Outcome, TimeToTarget and the trace stay
	// as the monitor decided them.
	st.snapshot(res.FinalParams)
	res.FinalLoss = rt.evalLoss(res.FinalParams)
	// Close the live-read window BEFORE cleanup retires the store: a
	// reader that arrives after this serves the final parameters; a lease
	// already in flight releases against the retired store and is labeled
	// (paramvec.Lease.RetiredStore).
	r.readMu.Lock()
	r.closed = true
	r.final = append([]float64(nil), res.FinalParams...)
	fronts := r.fronts
	r.fronts = nil
	r.readMu.Unlock()
	// Freeze every live ReadFront BEFORE the store retires: each detaches
	// from the store and serves the terminal snapshot with zero staleness.
	for _, rf := range fronts {
		rf.Freeze(r.final)
	}
	st.cleanup()

	// Merge per-worker instrumentation.
	res.Staleness = metrics.NewHist(stalenessBound(cfg.Workers))
	res.Tc, res.Tu = &metrics.DurationSampler{}, &metrics.DurationSampler{}
	for i := 0; i < cfg.Workers; i++ {
		res.Staleness.Merge(rt.hists[i])
		res.Tc.Merge(rt.tcs[i])
		res.Tu.Merge(rt.tus[i])
	}
	res.TotalUpdates = rt.updates.Load()
	res.Publishes = res.TotalUpdates
	res.ResumedFrom = rt.prior
	rt.faultMu.Lock()
	res.WorkerFaults = append([]WorkerFault(nil), rt.faults...)
	res.WorkerRestarts = rt.respawns
	rt.faultMu.Unlock()
	if ck := rt.ckpt; ck != nil {
		res.Checkpoints = ck.wrote
		res.CheckpointErrors = ck.failed
	}
	res.PeakLiveVectors = rt.pool.Peak()
	res.FinalLiveVectors = rt.liveVectors()
	res.BufferAllocs = rt.pool.Allocs()
	res.BufferReuses = rt.pool.Reuses()
	res.Shards = rt.numShards()
	st.fill(res)
	r.res = res
	close(r.done)
}

// Wait blocks until the run ends (convergence, crash, budget exhaustion or
// Stop) and returns the full measurement record.
func (r *Running) Wait() *Result {
	<-r.done
	return r.res
}

// Done returns a channel closed when the run has ended and its Result is
// ready.
func (r *Running) Done() <-chan struct{} { return r.done }

// Stop requests an early end: the workers drain, the final snapshot is taken
// and Wait returns. Safe to call repeatedly and concurrently.
func (r *Running) Stop() {
	r.rt.stop.Store(true)
	r.rt.stopOnce.Do(func() { close(r.rt.stopped) })
}

// Dim returns the flat parameter dimension d.
func (r *Running) Dim() int { return r.rt.d }

// ReadParams runs fn against a view of the current parameters and labels the
// read. Live Leashed-family runs serve a zero-copy leased view of the
// published store — the paper's read path, concurrent with the workers'
// LAU-SPC publishes; l is the caller's
// reusable lease (allocation-free across calls; a nil lease gets a
// temporary). Algorithms without a leased read path serve a copy through the
// strategy's snapshot into scratch (grown as needed). After the run ends,
// every read serves the immutable final parameters.
//
// fn must not retain the view past its return: leased segments are only
// protected until the lease is released.
func (r *Running) ReadParams(l *paramvec.Lease, scratch []float64, fn func(paramvec.View)) paramvec.ReadMeta {
	r.readMu.RLock()
	if r.closed {
		final := r.final
		r.readMu.RUnlock()
		fn(paramvec.FlatView(final))
		return paramvec.ReadMeta{Consistent: true, Final: true, Chains: 1}
	}
	if st := r.rt.store; st != nil {
		if l == nil {
			l = new(paramvec.Lease)
		}
		pv := l.Acquire(st)
		// Unlock before fn: a long inference pass must not block the
		// run's teardown — the lease's read registration keeps the
		// buffers valid, and Release classifies what happened meanwhile
		// (a lease that outlived its store is labeled,
		// paramvec.Lease.RetiredStore).
		r.readMu.RUnlock()
		fn(pv)
		consistent := l.Release()
		return paramvec.ReadMeta{
			Consistent: consistent,
			Retired:    l.RetiredStore(),
			Chains:     l.Chains(),
		}
	}
	// Copy fallback: every non-Leashed strategy's snapshot is safe for
	// concurrent outside callers (mutex-guarded or component-atomic).
	if len(scratch) < r.rt.d {
		scratch = make([]float64, r.rt.d)
	}
	buf := scratch[:r.rt.d]
	r.st.snapshot(buf)
	r.readMu.RUnlock()
	fn(paramvec.FlatView(buf))
	return paramvec.ReadMeta{Consistent: true, Copied: true, Chains: 1}
}

// Front returns a read-optimized snapshot store over this run's live
// parameters: an RCU double-buffered ReadFront whose refresher keeps one
// amortized consistent snapshot within leash of the workers' publishes —
// the serving tier's read-mostly path (serve.Config.Store "readfront").
// When the run ends the front freezes onto the final parameters and serves
// them with zero staleness; a Front taken after the run ends starts frozen.
// The caller should Close the front when done serving (freezing closes it
// too; Close is idempotent). Errors for algorithms without a chain store
// (only the Leashed family has one) unless the run has already ended.
func (r *Running) Front(leash paramvec.ReadLeash) (*paramvec.ReadFront, error) {
	r.readMu.Lock()
	defer r.readMu.Unlock()
	if r.closed {
		// The run's store may already be retired: fold the final
		// parameters from a private one-chain store instead.
		st := paramvec.NewStore(r.rt.d, 1)
		st.PublishInit(r.final)
		rf := paramvec.NewReadFront(st, leash)
		rf.Freeze(r.final)
		return rf, nil
	}
	if r.rt.store == nil {
		return nil, fmt.Errorf("sgd: %v has no chain store; a live ReadFront requires a Leashed variant", r.rt.cfg.Algo)
	}
	rf := paramvec.NewReadFront(r.rt.store, leash)
	r.fronts = append(r.fronts, rf)
	return rf, nil
}
