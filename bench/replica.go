package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
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

// The replica is the Leashed-SGD iteration rebuilt in this package from
// exported functions only — lease, sample, gradient, release, LAU-SPC publish
// per chain, and a monitor that snapshots and evaluates every 25 ms — with a
// span at each layer boundary. It is how the per-layer budget is measured
// without touching the program; trace.replica_gap_frac says how far its rate
// is from sgd.Run's on the same inputs, and so how far the split can be
// trusted. It omits what only the program has: the update budget, the
// staleness histogram, the fault-injection and crash-recovery hooks.

// detailChains is the chain count up to which every chain's publish gets its
// own child spans; above it only the first chain of an iteration does, or the
// spans would cost more than the 40 us sparse iteration they measure.
const detailChains = 8

type replicaResult struct {
	updates  int64
	elapsed  time.Duration
	attempts int64
	spans    []span
}

func (r replicaResult) rate() float64 { return float64(r.updates) / r.elapsed.Seconds() }

// runReplica runs the replica of s on in for dur. With traced false the same
// code runs with nil recorders; laneBase keeps the span ids of successive
// traced runs apart. stall, when non-zero, is slept inside every
// iteration outside any child span — the self-test's planted regression.
func runReplica(s spec, in *instance, seed uint64, dur time.Duration, traced bool, laneBase int, stall time.Duration) replicaResult {
	m := s.trainWorkers()
	var d int
	var theta0 []float64
	if s.arch == archSparse {
		d = in.sds.Dim
		theta0 = make([]float64, d)
	} else {
		d = in.net.ParamCount()
		theta0 = make([]float64, d)
		r := rng.New(seed)
		for i := range theta0 {
			theta0[i] = nn.DefaultSigma * r.NormFloat64()
		}
	}
	store := paramvec.NewStore(d, s.shards)
	store.PublishInit(theta0)

	base := time.Now()
	recs := make([]*recorder, m+1)
	if traced {
		for i := range recs {
			recs[i] = newRecorder(laneBase+i, base)
		}
	}
	var stop atomic.Bool
	var updates, attempts atomic.Int64
	var wg sync.WaitGroup
	for id := 0; id < m; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n, a int64
			if s.arch == archSparse {
				n, a = sparseWorker(s, in, store, id, seed, recs[id], &stop, stall)
			} else {
				n, a = denseWorker(s, in, store, id, seed, recs[id], &stop, stall)
			}
			updates.Add(n)
			attempts.Add(a)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		replicaMonitor(s, in, store, seed, m, recs[m], &stop)
	}()
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(base)
	store.Retire()
	return replicaResult{updates: updates.Load(), elapsed: elapsed, attempts: attempts.Load(), spans: mergeSpans(recs...)}
}

func denseWorker(s spec, in *instance, store paramvec.ParamStore, id int, seed uint64, rec *recorder, stop *atomic.Bool, stall time.Duration) (iters, attempts int64) {
	var lease paramvec.Lease
	sampler := data.NewSampler(in.ds.Len(), s.batch, seed, id)
	grad := make([]float64, in.net.ParamCount())
	ws := in.net.NewWorkspace()
	for !stop.Load() {
		rec.begin("iter")
		rec.begin("paramvec.lease_acquire")
		pv := lease.Acquire(store)
		rec.end(store.Chains())
		rec.begin("data.sample")
		batch := sampler.Next()
		clear(grad)
		rec.end(len(batch.Indices))
		if stall > 0 {
			time.Sleep(stall)
		}
		rec.begin("nn.batch_loss_grad")
		in.net.BatchLossGrad(pv, grad, in.ds, batch, ws)
		rec.end(len(batch.Indices))
		rec.begin("paramvec.lease_release")
		lease.Release()
		rec.end(0)
		rec.begin("paramvec.publish")
		a := densePublish(rec, store, id, grad, s.eta)
		rec.end(a)
		rec.end(1)
		attempts += int64(a)
		iters++
	}
	return iters, attempts
}

// densePublish is the LAU-SPC publish of a dense step: per chain, in the
// worker's rotated order, a fresh vector, then copy + update + one CAS,
// retried until it lands (Tp = ∞). It returns the CAS attempts made.
func densePublish(rec *recorder, store paramvec.ParamStore, worker int, grad []float64, eta float64) (attempts int) {
	C := store.Chains()
	for k := 0; k < C; k++ {
		c := (worker + k) % C
		r := store.ChainRange(c)
		det := rec
		if C > detailChains && k > 0 {
			det = nil
		}
		det.begin("paramvec.new_chain_vec")
		nv := store.NewChainVec(c)
		det.end(1)
		for {
			cur := store.ChainLatest(c)
			det.begin("paramvec.copy_update")
			nv.CopyFrom(cur)
			nv.Update(grad[r.Lo:r.Hi], eta)
			det.end(r.Len())
			det.begin("paramvec.try_publish")
			ok := store.ChainTryPublish(c, cur, nv)
			det.end(1)
			cur.StopReading()
			attempts++
			if ok {
				break
			}
		}
	}
	return attempts
}

func sparseWorker(s spec, in *instance, store paramvec.ParamStore, id int, seed uint64, rec *recorder, stop *atomic.Bool, stall time.Duration) (iters, attempts int64) {
	var lease paramvec.Lease
	sampler := data.NewSampler(len(in.sds.Examples), 1, seed, id)
	gath := make([]float64, sparseNNZ)
	val := make([]float64, sparseNNZ)
	for !stop.Load() {
		rec.begin("iter")
		rec.begin("paramvec.lease_acquire")
		pv := lease.Acquire(store)
		rec.end(store.Chains())
		rec.begin("data.sample")
		ex := in.sds.Examples[sampler.Next().Indices[0]]
		rec.end(1)
		if stall > 0 {
			time.Sleep(stall)
		}
		rec.begin("sparse.grad")
		w := pv.GatherSparse(ex.Idx, gath)
		res := 1/(1+math.Exp(-tensor.Dot(w, ex.Val))) - float64(ex.Label)
		out := val[:len(ex.Idx)]
		for k, v := range ex.Val {
			out[k] = res * v
		}
		rec.end(len(ex.Idx))
		rec.begin("paramvec.lease_release")
		lease.Release()
		rec.end(0)
		rec.begin("paramvec.publish")
		a := scatterPublish(rec, store, id, ex.Idx, out, s.eta)
		rec.end(a)
		rec.end(1)
		attempts += int64(a)
		iters++
	}
	return iters, attempts
}

// scatterPublish is the LAU-SPC publish of a sparse step: only the chains the
// step's indices hit are copied and CASed.
func scatterPublish(rec *recorder, store paramvec.ParamStore, worker int, idx []int32, val []float64, eta float64) (attempts int) {
	C := store.Chains()
	first := true
	for k := 0; k < C; k++ {
		c := (worker + k) % C
		r := store.ChainRange(c)
		a, b := window(idx, r.Lo, r.Hi)
		if a == b {
			continue
		}
		det := rec
		if C > detailChains && !first {
			det = nil
		}
		first = false
		det.begin("paramvec.new_chain_vec")
		nv := store.NewChainVec(c)
		det.end(1)
		for {
			cur := store.ChainLatest(c)
			det.begin("paramvec.try_publish_sparse")
			ok := store.ChainTryPublishSparse(c, cur, nv, idx[a:b], val[a:b], eta)
			det.end(b - a)
			cur.StopReading()
			attempts++
			if ok {
				break
			}
		}
	}
	return attempts
}

// window returns the part [a, b) of the sorted index list idx that falls in
// the component range [lo, hi).
func window(idx []int32, lo, hi int) (a, b int) {
	a = sort.Search(len(idx), func(k int) bool { return int(idx[k]) >= lo })
	b = a + sort.Search(len(idx)-a, func(k int) bool { return int(idx[a+k]) >= hi })
	return a, b
}

// replicaMonitor does what the run's monitor does on its 25 ms tick: one
// snapshot of the store and one loss evaluation over 256 sampled rows. Its
// cost shows as lost updates/s, not as iteration time: it shares the m cores.
func replicaMonitor(s spec, in *instance, store paramvec.ParamStore, seed uint64, lane int, rec *recorder, stop *atomic.Bool) {
	n := s.rows
	perm := make([]int, n)
	rng.NewStream(seed, lane).Perm(perm)
	evalIdx := perm[:min(n, 256)]
	var eval func(params []float64) float64
	if s.arch == archSparse {
		sub := &sparse.Dataset{Dim: in.sds.Dim}
		for _, i := range evalIdx {
			sub.Examples = append(sub.Examples, in.sds.Examples[i])
		}
		eval = func(params []float64) float64 { return sparse.Loss(params, sub) }
	} else {
		ws := in.net.NewWorkspace()
		eval = func(params []float64) float64 { return in.net.Loss(params, in.ds, evalIdx, ws) }
	}
	buf := make([]float64, store.Dim())
	var seqs []int64
	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	for !stop.Load() {
		<-ticker.C
		rec.begin("monitor.tick")
		rec.begin("paramvec.snapshot")
		seqs = store.Snapshot(buf, seqs)
		rec.end(len(seqs))
		rec.begin("nn.loss_eval")
		sink += eval(buf)
		rec.end(len(evalIdx))
		rec.end(1)
	}
}

// tracedServe is serve_live's traced pass: the real run and server, and a
// client that alternates a predict through the server with a direct read of
// its own ReadFront plus a forward pass — the two things a predict is made
// of besides the server's hand-off. It returns the spans and the fold rate of
// the client's ReadFront (same leash as the server's, so the same cadence).
func tracedServe(s spec, in *instance, seed uint64, dur time.Duration) (spans []span, foldsPerS float64, err error) {
	cfg := s.config(seed)
	cfg.EpsilonFrac, cfg.MaxUpdates, cfg.MaxTime = 0, 0, dur
	run, err := sgd.Start(cfg, in.net, in.ds)
	if err != nil {
		return nil, 0, err
	}
	stopRun := func() {
		run.Stop()
		run.Wait()
	}
	srv, err := serve.New(in.net, run, serve.Config{Store: serve.StoreReadFront, MaxDelay: -1, Leash: serveLeash})
	if err != nil {
		stopRun()
		return nil, 0, err
	}
	defer srv.Close()
	front, err := run.Front(serveLeash)
	if err != nil {
		stopRun()
		return nil, 0, err
	}
	defer front.Close()
	x := clientInput(in.net.InDim(), seed)
	ws := in.net.NewWorkspace()
	rec := newRecorder(0, time.Now())
	t0 := time.Now()
loop:
	for {
		select {
		case <-run.Done():
			break loop
		default:
		}
		rec.begin("client.round")
		rec.begin("serve.predict")
		_, perr := srv.Predict(x)
		rec.end(1)
		rec.begin("paramvec.readfront_read")
		front.ReadParams(nil, nil, func(v paramvec.View) {
			rec.begin("nn.forward")
			sink += in.net.ForwardView(v, x, ws)[0]
			rec.end(1)
		})
		rec.end(1)
		rec.end(1)
		if perr != nil {
			err = perr
		}
	}
	window := time.Since(t0).Seconds()
	foldsPerS = float64(front.Stats().Flips) / window
	run.Wait()
	return rec.spans, foldsPerS, err
}
