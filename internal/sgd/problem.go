// The representation-generic parameter pipeline: the unified worker loop is
// parameterized over a training problem (what produces gradients and
// evaluates loss) and a gradient representation (what a computed step IS and
// how each publish protocol applies it). Two problems exist — the dense
// neural-network substrate (nn.Network over data.Dataset) and sparse
// logistic regression (sparse.Dataset) — and two step representations, a
// dense slice and a CSR index/value pair. Every algorithm strategy
// (SEQ/ASYNC, HOGWILD!, the Leashed family) commits through the step
// interface, so sparse gradients flow through the exact same LAU-SPC /
// atomic-add / lock protocols the dense path uses — no per-algorithm
// forks. The payoff on the Leashed path is scatter-publish:
// a sparse step touches only the chains its nonzeros hit
// (paramvec.ChainTryPublishSparse), so with S shards and NNZ ≪ d almost
// every chain sees no CAS, no copy and no pool traffic.
package sgd

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"leashedsgd/internal/atomicx"
	"leashedsgd/internal/data"
	"leashedsgd/internal/nn"
	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/rng"
	"leashedsgd/internal/sparse"
	"leashedsgd/internal/tensor"
)

// step is one computed gradient step in whatever representation the problem
// produced it. The methods are exactly the operations the publish protocols
// need; all are called from the owning worker's iteration, so
// implementations need no synchronization of their own. No method may retain
// or allocate — the hot paths are alloc-free by contract.
type step interface {
	// applyVector applies θ ← θ − η·step in place on a full-dimension
	// vector the caller has exclusive or lock-protected access to — the
	// SEQ/ASYNC update.
	applyVector(v *paramvec.Vector, eta float64)
	// window locates the step's entries inside the component range
	// [lo, hi) as the window [a, b) of its own storage: the range itself for
	// a dense step, the index-slice window for a sparse one. b − a is how
	// many components the step writes there (the touched-component
	// accounting), and a == b skips the range — the chain-skip predicate of
	// the Leashed scatter-publish loop. Callers compute it once per range
	// and pass it on.
	window(lo, hi int) (a, b int)
	// atomicApply applies the whole step to the HOGWILD! bit-pattern array
	// with per-component atomic adds.
	atomicApply(shared []uint64, eta float64)
	// publishChain runs ONE LAU-SPC publish attempt on chain c against the
	// observed head cur: fold the step's entries [a, b) — its window on the
	// chain's range — into the private vector nv on top of cur's values and
	// try the single CAS. The caller owns the retry/drop loop, the staleness
	// accounting and cur's read protection.
	publishChain(store paramvec.ParamStore, c, a, b int, cur, nv *paramvec.Vector, eta float64) bool
}

// denseStep is the dense gradient representation: a full-dimension slice
// (the worker's gradient accumulator or its momentum velocity).
type denseStep []float64

func (s denseStep) applyVector(v *paramvec.Vector, eta float64) { v.Update(s, eta) }

// window of a dense step is the whole range: a dense publish writes every
// component (zero entries included — they still cost the copy).
func (s denseStep) window(lo, hi int) (a, b int) { return lo, hi }

func (s denseStep) atomicApply(shared []uint64, eta float64) {
	for i, g := range s {
		if g != 0 {
			atomicx.AddFloat64(&shared[i], -eta*g)
		}
	}
}

// publishChain is one fused pass nv = cur − η·s[a:b] and, only if cur was
// still unreplaced at every block boundary of that pass, the CAS. An attempt
// abandoned mid-pass reports false exactly like a lost CAS: another worker
// published, so the caller's accounting and the lock-freedom argument are
// those of Algorithm 3.
func (s denseStep) publishChain(store paramvec.ParamStore, c, a, b int, cur, nv *paramvec.Vector, eta float64) bool {
	return nv.UpdateFrom(cur, s[a:b], eta) && store.ChainTryPublish(c, cur, nv)
}

// sparseStep is the CSR gradient representation: strictly increasing
// store-absolute indices with their values. Range restriction is a binary
// search for the window boundaries — no per-component scan, no allocation.
type sparseStep struct {
	idx []int32
	val []float64
}

// window returns the index-slice window [a, b) of the step's entries falling
// inside the component range [lo, hi): two binary searches, which the
// callers run once per chain.
func (s sparseStep) window(lo, hi int) (a, b int) {
	a = sort.Search(len(s.idx), func(k int) bool { return int(s.idx[k]) >= lo })
	b = a + sort.Search(len(s.idx)-a, func(k int) bool { return int(s.idx[a+k]) >= hi })
	return a, b
}

func (s sparseStep) applyVector(v *paramvec.Vector, eta float64) {
	v.UpdateSparse(0, s.idx, s.val, eta)
}

func (s sparseStep) atomicApply(shared []uint64, eta float64) {
	for k, i := range s.idx {
		atomicx.AddFloat64(&shared[i], -eta*s.val[k])
	}
}

// publishChain is the scatter-publish: the store shifts the absolute indices
// into the chain's local range and folds only the hit components on top of
// cur's values (paramvec.TryPublishSparse).
func (s sparseStep) publishChain(store paramvec.ParamStore, c, a, b int, cur, nv *paramvec.Vector, eta float64) bool {
	return store.ChainTryPublishSparse(c, cur, nv, s.idx[a:b], s.val[a:b], eta)
}

// gradWorker is one worker's gradient computer. sample picks the next
// minibatch (untimed — it covers the sampler and any accumulator reset);
// compute produces the step against the parameter view (timed as Tc). The
// returned step may alias the worker's internal buffers and is valid until
// the next sample call — every strategy finishes the commit before the
// worker resumes, so the aliasing is safe by the loop's structure.
type gradWorker interface {
	sample()
	compute(pv paramvec.View, velocity []float64) step
	close()
}

// problem abstracts what is being trained: dimensionality, data size,
// initialization, per-worker gradient computation and monitor-side loss
// evaluation. The worker loop, the strategies and the monitor are all
// generic over it.
type problem interface {
	dim() int
	dataLen() int
	// describe names the trained model class for checkpoint metadata.
	describe() string
	// initParams fills the θ0 vector (the problem's conventional
	// initialization: rand_init for the dense nets, zero for sparse
	// logistic regression).
	initParams(v *paramvec.Vector, seed uint64)
	newGradWorker(rt *runCtx, id int) gradWorker
	// newLossEval returns the monitor's loss evaluator over the run's
	// fixed evaluation subset; the closure owns whatever scratch it needs.
	newLossEval(rt *runCtx) func(params []float64) float64
}

// denseProblem is the paper's deep-learning substrate: an nn.Network whose
// flat parameters train against a labeled image dataset.
type denseProblem struct {
	net *nn.Network
	ds  *data.Dataset
}

func (p *denseProblem) dim() int     { return p.net.ParamCount() }
func (p *denseProblem) dataLen() int { return p.ds.Len() }

func (p *denseProblem) describe() string {
	return fmt.Sprintf("dense-net-d%d", p.net.ParamCount())
}

func (p *denseProblem) initParams(v *paramvec.Vector, seed uint64) {
	v.RandInit(rng.New(seed), nn.DefaultSigma)
}

func (p *denseProblem) newGradWorker(rt *runCtx, id int) gradWorker {
	return &denseGradWorker{
		p:       p,
		rt:      rt,
		ws:      p.net.NewWorkspace(),
		grad:    paramvec.New(rt.pool),
		sampler: data.NewSampler(p.dataLen(), rt.cfg.BatchSize, rt.cfg.Seed, id),
	}
}

// newLossEval stages the evaluation subset once — its row pointers and
// labels, as a dataset of its own — so a tick is one blocked evaluation
// pass (nn.Network.Evaluate) over contiguous rows with nothing to allocate.
func (p *denseProblem) newLossEval(rt *runCtx) func(params []float64) float64 {
	ws := p.net.NewWorkspace()
	evalIdx := rt.evalSubset()
	sub := &data.Dataset{
		X: make([][]float64, len(evalIdx)),
		Y: make([]int, len(evalIdx)),
		H: p.ds.H, W: p.ds.W, Classes: p.ds.Classes,
	}
	for r, i := range evalIdx {
		sub.X[r], sub.Y[r] = p.ds.X[i], p.ds.Y[i]
	}
	return func(params []float64) float64 {
		return p.net.Loss(params, sub, nil, ws)
	}
}

// denseGradWorker computes minibatch gradients through the network's batched
// backprop into a pooled full-dimension accumulator.
type denseGradWorker struct {
	p       *denseProblem
	rt      *runCtx
	ws      *nn.Workspace
	grad    *paramvec.Vector
	sampler *data.Sampler
	batch   data.Batch
}

// sample only draws the batch: BatchLossGrad overwrites the accumulator, so
// there is no 1 MB zeroing pass (and no cache it evicts) per iteration.
func (g *denseGradWorker) sample() { g.batch = g.sampler.Next() }

func (g *denseGradWorker) compute(pv paramvec.View, velocity []float64) step {
	g.p.net.BatchLossGrad(pv, g.grad.Theta, g.p.ds, g.batch, g.ws)
	if velocity == nil {
		return denseStep(g.grad.Theta)
	}
	// Heavy-ball fold: v ← µv + ∇f; the step is taken along the velocity.
	mu := g.rt.cfg.Momentum
	for i, gr := range g.grad.Theta {
		velocity[i] = mu*velocity[i] + gr
	}
	return denseStep(velocity)
}

func (g *denseGradWorker) close() { g.grad.Release() }

// sparseProblem is sparse binary logistic regression over a sparse.Dataset —
// the workload class HOGWILD! was designed for, now running through every
// algorithm of the unified loop with first-class sparse steps. asDense is
// the control arm (Config.SparseAsDense): gradients are accumulated into a
// full-dimension dense step so the publish protocols behave exactly as on a
// dense problem — the whole-vector-publish baseline the scatter-publish
// benchmark compares against.
type sparseProblem struct {
	ds      *sparse.Dataset
	asDense bool
	maxNNZ  int
}

func newSparseProblem(ds *sparse.Dataset, asDense bool) *sparseProblem {
	maxNNZ := 0
	for _, ex := range ds.Examples {
		if len(ex.Idx) > maxNNZ {
			maxNNZ = len(ex.Idx)
		}
	}
	return &sparseProblem{ds: ds, asDense: asDense, maxNNZ: maxNNZ}
}

func (p *sparseProblem) dim() int     { return p.ds.Dim }
func (p *sparseProblem) dataLen() int { return len(p.ds.Examples) }

func (p *sparseProblem) describe() string {
	return fmt.Sprintf("sparse-logreg-d%d", p.ds.Dim)
}

// initParams zeroes θ0 — the conventional start for logistic regression and
// the one the package's reference trainers use, so loss trajectories are
// comparable.
func (p *sparseProblem) initParams(v *paramvec.Vector, seed uint64) {
	zero(v.Theta)
	v.T = 0
}

func (p *sparseProblem) newGradWorker(rt *runCtx, id int) gradWorker {
	g := &sparseGradWorker{
		p:       p,
		sampler: data.NewSampler(p.dataLen(), rt.cfg.BatchSize, rt.cfg.Seed, id),
		gath:    make([]float64, p.maxNNZ),
	}
	bufCap := rt.cfg.BatchSize * p.maxNNZ
	g.outIdx = make([]int32, 0, bufCap)
	g.outVal = make([]float64, 0, bufCap)
	if p.asDense {
		g.dense = make([]float64, p.ds.Dim)
	} else if rt.cfg.BatchSize > 1 {
		g.scratch = make([]float64, p.ds.Dim)
		g.touched = make([]int32, 0, bufCap)
	}
	return g
}

// newLossEval builds one CSR over the evaluation subset so every monitor
// tick is a single SpMV plus the stable logistic loss — no per-example
// index chasing.
func (p *sparseProblem) newLossEval(rt *runCtx) func(params []float64) float64 {
	evalIdx := rt.evalSubset()
	rowPtr := make([]int32, len(evalIdx)+1)
	var cIdx []int32
	var cVal []float64
	labels := make([]float64, len(evalIdx))
	for r, i := range evalIdx {
		ex := p.ds.Examples[i]
		cIdx = append(cIdx, ex.Idx...)
		cVal = append(cVal, ex.Val...)
		rowPtr[r+1] = int32(len(cIdx))
		labels[r] = float64(ex.Label)
	}
	m := tensor.CSR{Rows: len(evalIdx), Cols: p.ds.Dim, RowPtr: rowPtr, Idx: cIdx, Val: cVal}
	z := make([]float64, len(evalIdx))
	return func(params []float64) float64 {
		tensor.SpMV(z, m, params)
		var total float64
		for r, zr := range z {
			if labels[r] == 0 {
				zr = -zr
			}
			// Numerically stable log(1+e^{-z}).
			if zr > 0 {
				total += math.Log1p(math.Exp(-zr))
			} else {
				total += -zr + math.Log1p(math.Exp(zr))
			}
		}
		return total / float64(len(z))
	}
}

// sparseGradWorker computes minibatch logistic-regression gradients in CSR
// form. The single-example fast path (the sparse default, BatchSize 1)
// reuses the example's own sorted index set with zero sorting; batches
// accumulate into a full-dimension scratch that is drained and re-zeroed
// sparsely — the worker never performs an O(d) pass.
type sparseGradWorker struct {
	p       *sparseProblem
	sampler *data.Sampler
	batch   data.Batch
	gath    []float64 // per-example gathered weights (segmented views)
	scratch []float64 // batch accumulator; zero outside the touched set
	touched []int32
	outIdx  []int32
	outVal  []float64
	dense   []float64 // asDense control arm accumulator
}

func (g *sparseGradWorker) sample() {
	g.batch = g.sampler.Next()
	if g.dense != nil {
		zero(g.dense)
	}
}

// residual computes (σ(w·x) − y) for one example against the leased view:
// a flat view feeds the SpDot gather kernel directly; a segmented one
// gathers the hit components through the view's sparse cursor first.
func (g *sparseGradWorker) residual(pv paramvec.View, ex sparse.Example) float64 {
	var dot float64
	if flat := pv.Flat(); flat != nil {
		dot = tensor.SpDot(ex.Idx, ex.Val, flat)
	} else {
		w := pv.GatherSparse(ex.Idx, g.gath)
		dot = tensor.Dot(w, ex.Val)
	}
	return 1/(1+math.Exp(-dot)) - float64(ex.Label)
}

func (g *sparseGradWorker) compute(pv paramvec.View, velocity []float64) step {
	B := len(g.batch.Indices)
	invB := 1 / float64(B)
	if g.dense != nil {
		for _, i := range g.batch.Indices {
			ex := g.p.ds.Examples[i]
			res := g.residual(pv, ex) * invB
			for k, j := range ex.Idx {
				g.dense[j] += res * ex.Val[k]
			}
		}
		return denseStep(g.dense)
	}
	if B == 1 {
		// Fast path: one example's gradient IS a sorted CSR row — scale
		// into the output buffer, alias the example's index set.
		ex := g.p.ds.Examples[g.batch.Indices[0]]
		res := g.residual(pv, ex)
		out := g.outVal[:len(ex.Idx)]
		for k, v := range ex.Val {
			out[k] = res * v
		}
		return sparseStep{idx: ex.Idx, val: out}
	}
	g.touched = g.touched[:0]
	for _, i := range g.batch.Indices {
		ex := g.p.ds.Examples[i]
		res := g.residual(pv, ex) * invB
		for k, j := range ex.Idx {
			g.scratch[j] += res * ex.Val[k]
		}
		g.touched = append(g.touched, ex.Idx...)
	}
	slices.Sort(g.touched)
	// Dedupe-compact while draining: each touched slot is read once and
	// re-zeroed, restoring the scratch invariant sparsely.
	outIdx, outVal := g.outIdx[:0], g.outVal[:0]
	prev := int32(-1)
	for _, j := range g.touched {
		if j == prev {
			continue
		}
		prev = j
		outIdx = append(outIdx, j)
		outVal = append(outVal, g.scratch[j])
		g.scratch[j] = 0
	}
	g.outIdx, g.outVal = outIdx, outVal
	return sparseStep{idx: outIdx, val: outVal}
}

func (g *sparseGradWorker) close() {}
