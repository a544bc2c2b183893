package main

import (
	"runtime"
	"time"

	"leashedsgd/internal/data"
	"leashedsgd/internal/metrics"
	"leashedsgd/internal/nn"
	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/rng"
	"leashedsgd/internal/serve"
	"leashedsgd/internal/sparse"
	"leashedsgd/internal/tensor"
)

// perLayer are the metrics of the traced pass (-trace 1), in print order.
// The first block is timed from outside by calling each package's exported
// functions at the sizes the workloads use; it does not depend on the
// workload. The second block comes from the workload's own runs and reads 0
// where the layer is not on the workload's path.
var perLayer = []metricDef{
	// tensor: kernels, with computed FLOPs and bytes.
	{"tensor.gemm_gflops", "GFLOP/s"},
	{"tensor.im2col_us", "us"},
	{"tensor.axpy_gbps", "GB/s"},
	{"tensor.spdot_ns", "ns"},
	// nn: what a worker, the monitor and a predict call pay.
	{"nn.mlp_grad_ms", "ms"},
	{"nn.mlp_grad_b1_us", "us"},
	{"nn.cnn_grad_ms", "ms"},
	{"nn.forward_us", "us"},
	{"nn.loss_eval_ms", "ms"},
	{"nn.grad_allocs", "count"},
	{"sparse.grad_ns", "ns"},
	{"data.generate_s", "s"},
	{"data.sample_ns", "ns"},
	// paramvec, write side.
	{"paramvec.publish_us", "us"},
	{"paramvec.publish_sparse_us", "us"},
	{"paramvec.pool_getput_ns", "ns"},
	{"paramvec.publish_allocs", "count"},
	// paramvec, read side.
	{"paramvec.lease_s1_ns", "ns"},
	{"paramvec.lease_s8_ns", "ns"},
	{"paramvec.lease_s64_ns", "ns"},
	{"paramvec.snapshot_us", "us"},
	{"paramvec.readfront_read_ns", "ns"},
	{"metrics.observe_ns", "ns"},
	{"serve.predict_idle_us", "us"},
	{"serve.predict_allocs", "count"},
	{"trace.span_ns", "ns"},

	// From the workload's runs: paramvec counters.
	{"paramvec.failed_cas_per_publish", "ratio"},
	{"paramvec.cas_success_frac", "ratio"},
	{"paramvec.dropped_updates", "count"},
	{"paramvec.peak_live_vectors", "count"},
	{"paramvec.reuse_frac", "ratio"},
	{"paramvec.mixed_read_frac", "ratio"},
	{"paramvec.readfront_folds_per_s", "1/s"},
	{"paramvec.readfront_stale_updates_mean", "count"},
	// sgd: the Fig. 9 split and what surrounds it.
	{"sgd.tc_mean_us", "us"},
	{"sgd.tu_mean_us", "us"},
	{"sgd.tu_over_tc", "ratio"},
	{"sgd.iter_other_us", "us"},
	{"sgd.covered_frac", "ratio"},
	{"sgd.updates_to_eps", "count"},
	{"sgd.staleness_mean", "count"},
	{"sgd.staleness_p99", "count"},
	{"sgd.seq_updates_per_s", "1/s"},
	{"sgd.scaling_eff", "ratio"},
	{"sgd.async_updates_per_s", "1/s"},
	{"sgd.hog_updates_per_s", "1/s"},
	{"sgd.start_ms", "ms"},
	{"sgd.budget_exact_frac", "ratio"},
	// serve: the client's view and the server's own counters (serve_live).
	{"serve.predict_p50_us", "us"},
	{"serve.predict_p99_us", "us"},
	{"serve.predict_tail_us", "us"},
	{"serve.predict_tail_pct", "%"},
	{"serve.predict_samples", "count"},
	{"serve.predict_per_s", "1/s"},
	{"serve.predict_self_us", "us"},
	{"serve.batch_mean", "count"},
	{"serve.shed_frac", "ratio"},
	{"serve.consistent_frac", "ratio"},
	{"serve.stale_age_us_mean", "us"},
	{"serve.leash_violations", "count"},
	// trace: how far the outside split can be trusted.
	{"trace.cover_frac", "ratio"},
	{"trace.replica_gap_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.iter_us", "us"},
	{"trace.lease_us", "us"},
	{"trace.sample_us", "us"},
	{"trace.grad_us", "us"},
	{"trace.publish_us", "us"},
	{"trace.publish_attempts_mean", "count"},
	{"trace.monitor_tick_ms", "ms"},
}

// sink keeps results the compiler could otherwise discard.
var sink float64

// timeOp returns the median time of one f() in nanoseconds: it sizes a batch
// to about budget/5 and times five batches, so a burst of machine noise
// spoils one batch, not the number.
func timeOp(budget time.Duration, f func()) float64 {
	f() // first call: page in, fill caches
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if el := time.Since(t0); el >= budget/10 || n >= 1<<24 {
			n = max(1, int(float64(n)*float64(budget/5)/float64(max(el, 1))))
			break
		}
		n *= 4
	}
	per := make([]float64, 5)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// allocsPerOp is heap allocations per f(), averaged over n calls.
func allocsPerOp(n int, f func()) float64 {
	f()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

func randVec(n int, r *rng.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.01 * r.NormFloat64()
	}
	return x
}

// layerMicro times every layer from outside, each for about budget. It is the
// same on every workload: the sizes are the workloads' own (d=134,794 for the
// MLP vector, 32x784x128 for its first GEMM, nnz=64 over d=131,072 for the
// sparse step).
func layerMicro(ms *metricSet, seed uint64, budget time.Duration) {
	r := rng.New(seed)
	mlp, cnn := nn.NewPaperMLP(), nn.NewPaperCNN()
	d := mlp.ParamCount()
	t0 := time.Now()
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(256, seed))
	ms.set("data.generate_s", time.Since(t0).Seconds()/256*8192) // scaled to the dense workloads' 8192-row pool

	// tensor
	a, b, c := tensor.MatFrom(32, 784, randVec(32*784, r)), tensor.MatFrom(784, 128, randVec(784*128, r)), tensor.NewMat(32, 128)
	ns := timeOp(budget, func() { tensor.MatMul(c, a, b) })
	ms.set("tensor.gemm_gflops", 2*32*784*128/ns)
	col := tensor.NewMat(9, 26*26)
	ms.set("tensor.im2col_us", timeOp(budget, func() { tensor.Im2Col(col, ds.X[0], 1, 28, 28, 3) })/1e3)
	x, y := randVec(d, r), randVec(d, r)
	ns = timeOp(budget, func() { tensor.Axpy(-0.001, x, y) })
	ms.set("tensor.axpy_gbps", float64(3*8*d)/ns) // reads x and y, writes y
	sds := sparse.Generate(sparse.GenConfig{N: 64, Dim: sparseDim, NNZ: sparseNNZ, Seed: seed})
	w := randVec(sparseDim, r)
	ex, k := sds.Examples, 0
	ms.set("tensor.spdot_ns", timeOp(budget, func() {
		k = (k + 1) % len(ex)
		sink += tensor.SpDot(ex[k].Idx, ex[k].Val, w)
	}))
	ms.set("sparse.grad_ns", timeOp(budget, func() {
		k = (k + 1) % len(ex)
		sparse.Grad(w, ex[k], func(_ int32, g float64) { sink += g })
	}))

	// nn
	params := randVec(d, r)
	grad := make([]float64, d)
	ws := mlp.NewWorkspace()
	s32, s1 := data.NewSampler(ds.Len(), 32, seed, 0), data.NewSampler(ds.Len(), 1, seed, 1)
	pv := paramvec.FlatView(params)
	mlpGrad := func() { sink += mlp.BatchLossGrad(pv, grad, ds, s32.Next(), ws) }
	ms.set("nn.mlp_grad_ms", timeOp(budget, mlpGrad)/1e6)
	ms.set("nn.grad_allocs", allocsPerOp(20, mlpGrad))
	ms.set("nn.mlp_grad_b1_us", timeOp(budget, func() { sink += mlp.BatchLossGrad(pv, grad, ds, s1.Next(), ws) })/1e3)
	cparams, cgrad, cws := randVec(cnn.ParamCount(), r), make([]float64, cnn.ParamCount()), cnn.NewWorkspace()
	cpv := paramvec.FlatView(cparams)
	ms.set("nn.cnn_grad_ms", timeOp(budget, func() { sink += cnn.BatchLossGrad(cpv, cgrad, ds, s32.Next(), cws) })/1e6)
	ms.set("nn.forward_us", timeOp(budget, func() { sink += mlp.Forward(params, ds.X[0], ws)[0] })/1e3)
	ms.set("nn.loss_eval_ms", timeOp(budget, func() { sink += mlp.Loss(params, ds, nil, ws) })/1e6) // 256 rows: one monitor tick
	ms.set("data.sample_ns", timeOp(budget, func() { sink += float64(s1.Next().Indices[0]) }))

	// paramvec, write side: the uncontended LAU-SPC publish of a dense step.
	single := paramvec.NewSingle(d)
	single.PublishInit(params)
	publish := func() {
		nv := single.NewChainVec(0)
		cur := single.ChainLatest(0)
		nv.CopyFrom(cur)
		nv.Update(grad, 0.001)
		if !single.ChainTryPublish(0, cur, nv) {
			panic("bench: uncontended publish lost its CAS")
		}
		cur.StopReading()
	}
	ms.set("paramvec.publish_us", timeOp(budget, publish)/1e3)
	ms.set("paramvec.publish_allocs", allocsPerOp(200, publish))
	pool := paramvec.NewPool(d)
	ms.set("paramvec.pool_getput_ns", timeOp(budget, func() { paramvec.New(pool).Release() }))
	s64 := paramvec.NewStore(sparseDim, 64)
	s64.PublishInit(w)
	val := make([]float64, sparseNNZ)
	ms.set("paramvec.publish_sparse_us", timeOp(budget, func() {
		k = (k + 1) % len(ex)
		scatterPublish(nil, s64, 0, ex[k].Idx, val, 0.1)
	})/1e3)

	// paramvec, read side.
	s8 := paramvec.NewStore(d, 8)
	s8.PublishInit(params)
	var lease paramvec.Lease
	for _, l := range []struct {
		name  string
		store paramvec.ParamStore
	}{{"paramvec.lease_s1_ns", single}, {"paramvec.lease_s8_ns", s8}, {"paramvec.lease_s64_ns", s64}} {
		ms.set(l.name, timeOp(budget, func() {
			lease.Acquire(l.store)
			lease.Release()
		}))
	}
	buf := make([]float64, d)
	var seqs []int64
	ms.set("paramvec.snapshot_us", timeOp(budget, func() { seqs = s8.Snapshot(buf, seqs) })/1e3)
	rf := paramvec.NewReadFront(s8, paramvec.ReadLeash{MaxAge: time.Hour}) // never stale: times the read, not the fold
	ms.set("paramvec.readfront_read_ns", timeOp(budget, func() {
		rf.ReadParams(nil, nil, func(v paramvec.View) { sink += v.Flat()[0] })
	}))
	rf.Close()

	h := metrics.NewHist(80)
	ms.set("metrics.observe_ns", timeOp(budget, func() { h.Observe(int64(k & 63)); k++ }))

	// serve with nothing publishing: hand-off + read + forward + softmax.
	srv, err := serve.New(mlp, serve.StaticSource(params), serve.Config{MaxDelay: -1})
	if err != nil {
		panic(err) // the source is sized from the same network
	}
	predict := func() {
		if _, err := srv.Predict(ds.X[0]); err != nil {
			panic(err)
		}
	}
	ms.set("serve.predict_idle_us", timeOp(budget, predict)/1e3)
	ms.set("serve.predict_allocs", allocsPerOp(200, predict))
	srv.Close()

	ms.set("trace.span_ns", spanCost())
}
