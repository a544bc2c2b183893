package nn

import (
	"fmt"
	"math"

	"leashedsgd/internal/data"
	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/rng"
	"leashedsgd/internal/tensor"
)

// Network is an immutable feed-forward architecture description: a chain of
// layers whose parameters are laid out consecutively in one flat vector of
// length ParamCount(). A single Network value is shared read-only by all SGD
// workers; every worker evaluates it through its own Workspace.
type Network struct {
	layers  []Layer
	offsets []int // offsets[i] is the start of layer i's params in θ
	d       int   // total parameter count
	inDim   int
	outDim  int
	// blayers caches every layer's batched kernel interface; non-nil only
	// when ALL layers implement batchLayer, in which case BatchLossGrad
	// routes through the GEMM chain in batch.go.
	blayers []batchLayer
	// dropouts lists the Dropout layers' indices — the only layers whose
	// forward pass differs between training and inference; empty for the
	// paper's architectures, so the mode switch costs them nothing.
	dropouts []int
}

// NewNetwork validates that consecutive layers' dimensions chain and returns
// the network.
func NewNetwork(layers ...Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("nn: empty network")
	}
	n := &Network{layers: layers, offsets: make([]int, len(layers))}
	for i, l := range layers {
		if i > 0 && l.InDim() != layers[i-1].OutDim() {
			return nil, fmt.Errorf("nn: layer %d (%s) expects input %d but layer %d (%s) outputs %d",
				i, l.Name(), l.InDim(), i-1, layers[i-1].Name(), layers[i-1].OutDim())
		}
		// A Conv2D's rows are InW apart (see Conv2D): only its own pool reads
		// them, after any ReLUs, which keep the layout.
		if c, ok := l.(*Conv2D); ok {
			j := i + 1
			for j < len(layers) {
				if _, ok := layers[j].(*ReLU); !ok {
					break
				}
				j++
			}
			var p *MaxPool2D
			if j < len(layers) {
				p, _ = layers[j].(*MaxPool2D)
			}
			if p == nil || p.C != c.Filters || p.InH != c.OutH() || p.InW != c.OutW() || p.RowStride != c.InW {
				return nil, fmt.Errorf("nn: layer %d (%s) must be followed by its Pool", i, l.Name())
			}
		}
		n.offsets[i] = n.d
		n.d += l.ParamCount()
		if _, ok := l.(*Dropout); ok {
			n.dropouts = append(n.dropouts, i)
		}
	}
	n.inDim = layers[0].InDim()
	n.outDim = layers[len(layers)-1].OutDim()
	n.blayers = make([]batchLayer, len(layers))
	for i, l := range layers {
		bl, ok := l.(batchLayer)
		if !ok {
			n.blayers = nil
			break
		}
		n.blayers[i] = bl
	}
	return n, nil
}

// MustNetwork is NewNetwork that panics on error; for the fixed architecture
// builders below whose geometry is known correct.
func MustNetwork(layers ...Layer) *Network {
	n, err := NewNetwork(layers...)
	if err != nil {
		panic(err)
	}
	return n
}

// ParamCount returns d, the dimension of the flat parameter vector θ.
func (n *Network) ParamCount() int { return n.d }

// InDim returns the flattened input dimension.
func (n *Network) InDim() int { return n.inDim }

// OutDim returns the output (class logit) dimension.
func (n *Network) OutDim() int { return n.outDim }

// Layers returns the layer chain (read-only use).
func (n *Network) Layers() []Layer { return n.layers }

// Arch returns a human-readable architecture summary.
func (n *Network) Arch() string {
	s := ""
	for i, l := range n.layers {
		if i > 0 {
			s += " → "
		}
		s += l.Name()
	}
	return fmt.Sprintf("%s [d=%d]", s, n.d)
}

// layerParams returns layer i's slice of the flat vector v (params or grad).
func (n *Network) layerParams(v []float64, i int) []float64 {
	return v[n.offsets[i] : n.offsets[i]+n.layers[i].ParamCount()]
}

// Init fills params with N(0, σ²) values, the paper's rand_init
// (theta ← N(0, 0.01), i.e. variance 0.01 → σ = 0.1).
func (n *Network) Init(params []float64, r *rng.Rand, sigma float64) {
	if len(params) != n.d {
		panic("nn: Init params length mismatch")
	}
	for i := range params {
		params[i] = sigma * r.NormFloat64()
	}
}

// DefaultSigma is the σ for Init matching the paper's N(0, 0.01) variance.
const DefaultSigma = 0.1

// Workspace holds one worker's mutable evaluation state: activations per
// layer boundary, error deltas, per-layer scratch, and the softmax buffer.
// Workspaces are not safe for concurrent use; allocate one per worker.
type Workspace struct {
	acts    [][]float64 // acts[0] = input copy target, acts[i+1] = layer i output
	deltas  [][]float64 // deltas[i] = dLoss/d(acts[i])
	scratch []any
	probs   []float64
	// stitch[i] is layer i's gather target, allocated on first use — only
	// a parameterized layer without a segment-aware kernel (viewLayer)
	// whose block actually straddles a segment boundary ever needs one.
	// After the first fallback the buffer is reused, keeping the
	// segmented-view hot path allocation-free; flat-view runs never pay
	// for it.
	stitch [][]float64
	// batch holds the batch-shaped buffers of the GEMM gradient path,
	// sized lazily to the largest batch seen (see batch.go).
	batch batchBuffers
}

// NewWorkspace allocates a workspace for this network.
func (n *Network) NewWorkspace() *Workspace {
	ws := &Workspace{
		acts:    make([][]float64, len(n.layers)+1),
		deltas:  make([][]float64, len(n.layers)+1),
		scratch: make([]any, len(n.layers)),
		probs:   make([]float64, n.outDim),
		stitch:  make([][]float64, len(n.layers)),
	}
	ws.acts[0] = make([]float64, n.inDim)
	ws.deltas[0] = make([]float64, n.inDim)
	for i, l := range n.layers {
		ws.acts[i+1] = make([]float64, l.OutDim())
		ws.deltas[i+1] = make([]float64, l.OutDim())
		ws.scratch[i] = l.NewScratch()
	}
	return ws
}

// stitchFor returns layer i's reusable gather buffer, allocating it on the
// first segmented-fallback use.
func (n *Network) stitchFor(ws *Workspace, i int) []float64 {
	if ws.stitch[i] == nil {
		ws.stitch[i] = make([]float64, n.layers[i].ParamCount())
	}
	return ws.stitch[i]
}

// viewLayer is the optional segment-aware kernel interface: layers that
// implement it evaluate directly against a segmented parameter view when
// their parameter block straddles a segment boundary, splitting their inner
// loops at the boundaries instead of copying (zero-copy). Layers without it
// fall back to gathering their (typically small) block into the workspace's
// pre-sized stitch buffer. lo is the layer's start offset in the flat vector.
type viewLayer interface {
	ForwardView(pv paramvec.View, lo int, in, out []float64, scratch any)
	BackwardView(pv paramvec.View, lo int, grad, in, out, dOut, dIn []float64, scratch any)
}

// layerForward runs layer i's forward pass against the parameter view:
// contiguous fast path (always taken for flat views, and for any layer that
// fits inside one segment), segment-aware kernel, or stitch fallback.
func (n *Network) layerForward(pv paramvec.View, i int, ws *Workspace) {
	l := n.layers[i]
	lo := n.offsets[i]
	hi := lo + l.ParamCount()
	if p, ok := pv.Slice(lo, hi); ok {
		l.Forward(p, ws.acts[i], ws.acts[i+1], ws.scratch[i])
	} else if vl, ok := l.(viewLayer); ok {
		vl.ForwardView(pv, lo, ws.acts[i], ws.acts[i+1], ws.scratch[i])
	} else {
		l.Forward(pv.Gather(lo, hi, n.stitchFor(ws, i)), ws.acts[i], ws.acts[i+1], ws.scratch[i])
	}
}

// layerBackward is the backward-pass counterpart of layerForward. grad is
// always a flat private vector — only the parameter READ is segmented.
func (n *Network) layerBackward(pv paramvec.View, i int, grad []float64, dOut, dIn []float64, ws *Workspace) {
	l := n.layers[i]
	lo := n.offsets[i]
	hi := lo + l.ParamCount()
	if p, ok := pv.Slice(lo, hi); ok {
		l.Backward(p, n.layerParams(grad, i), ws.acts[i], ws.acts[i+1], dOut, dIn, ws.scratch[i])
	} else if vl, ok := l.(viewLayer); ok {
		vl.BackwardView(pv, lo, n.layerParams(grad, i), ws.acts[i], ws.acts[i+1], dOut, dIn, ws.scratch[i])
	} else {
		l.Backward(pv.Gather(lo, hi, n.stitchFor(ws, i)), n.layerParams(grad, i),
			ws.acts[i], ws.acts[i+1], dOut, dIn, ws.scratch[i])
	}
}

// ForwardView runs the network against a (possibly segmented) parameter view
// and returns the logits slice, which aliases workspace storage and is valid
// until the next call. Inference: Dropout layers run as the identity.
func (n *Network) ForwardView(pv paramvec.View, x []float64, ws *Workspace) []float64 {
	if pv.Len() != n.d {
		panic("nn: ForwardView params length mismatch")
	}
	n.setDropoutEval(ws, true)
	return n.forward(pv, x, ws)
}

// forward is the per-example forward chain in whatever Dropout mode the
// entry point set on the workspace.
func (n *Network) forward(pv paramvec.View, x []float64, ws *Workspace) []float64 {
	if len(x) != n.inDim {
		panic("nn: Forward input length mismatch")
	}
	copy(ws.acts[0], x)
	for i := range n.layers {
		n.layerForward(pv, i, ws)
	}
	return ws.acts[len(n.layers)]
}

// setDropoutEval puts the workspace's Dropout scratch (per-example and
// batched) in inference mode (identity) or training mode (fresh mask per
// forward pass). Every exported entry point sets the mode it needs — the
// gradient passes train, everything else infers — after sizing the batch
// buffers, so a workspace shared between the two never leaks a mode.
func (n *Network) setDropoutEval(ws *Workspace, eval bool) {
	for _, i := range n.dropouts {
		ws.scratch[i].(*dropoutScratch).eval = eval
		if ws.batch.scratch != nil {
			ws.batch.scratch[i].(*dropoutScratch).eval = eval
		}
	}
}

// Forward runs the network on x (length InDim) and returns the logits slice,
// which aliases workspace storage and is valid until the next call.
func (n *Network) Forward(params, x []float64, ws *Workspace) []float64 {
	if len(params) != n.d {
		panic("nn: Forward params length mismatch")
	}
	return n.ForwardView(paramvec.FlatView(params), x, ws)
}

// softmaxCE computes softmax probabilities of logits into probs and returns
// the cross-entropy loss against label y.
func softmaxCE(logits, probs []float64, y int) float64 {
	SoftmaxInto(logits, probs)
	p := probs[y]
	if p < 1e-300 {
		p = 1e-300
	}
	return -math.Log(p)
}

// backprop runs the backward pass for one sample whose forward activations
// and softmax probabilities are live in ws, accumulating into grad.
func (n *Network) backprop(pv paramvec.View, grad []float64, y int, invB float64, ws *Workspace) {
	nl := len(n.layers)
	// dLoss/dlogits = (softmax - onehot) / B
	dOut := ws.deltas[nl]
	for i := range dOut {
		dOut[i] = ws.probs[i] * invB
	}
	dOut[y] -= invB
	for i := nl - 1; i >= 0; i-- {
		var dIn []float64
		if i > 0 {
			dIn = ws.deltas[i]
		}
		n.layerBackward(pv, i, grad, ws.deltas[i+1], dIn, ws)
	}
}

// LossGrad computes the mean softmax-cross-entropy loss of the batch and
// ACCUMULATES the mean gradient into grad (callers zero grad when they want
// a fresh gradient; accumulation supports gradient averaging schemes).
// xs[i] must have length InDim; ys[i] in [0, OutDim).
func (n *Network) LossGrad(params, grad []float64, xs [][]float64, ys []int, ws *Workspace) float64 {
	if len(grad) != n.d {
		panic("nn: LossGrad grad length mismatch")
	}
	if len(xs) != len(ys) || len(xs) == 0 {
		panic("nn: LossGrad empty or mismatched batch")
	}
	if len(params) != n.d {
		panic("nn: LossGrad params length mismatch")
	}
	pv := paramvec.FlatView(params)
	invB := 1 / float64(len(xs))
	n.setDropoutEval(ws, false)
	var totalLoss float64
	for b, x := range xs {
		logits := n.forward(pv, x, ws)
		totalLoss += softmaxCE(logits, ws.probs, ys[b])
		n.backprop(pv, grad, ys[b], invB, ws)
	}
	return totalLoss * invB
}

// BatchLossGrad is the gradient entry point of the SGD hot path: mean loss
// and gradient over dataset rows selected by batch indices, reading the
// parameters through a View. It OVERWRITES grad — callers need not (and the
// worker loop does not) zero it between iterations; LossGrad is the
// accumulating form. The view may be flat (paramvec.FlatView over a
// private copy — the lock-based and HOGWILD! read protocols) or segmented
// (a leased zero-copy read of the published shard buffers —
// paramvec.Lease.Acquire), in which case segment-aware kernels and
// pre-sized stitch buffers keep the pass allocation-free
// (TestBatchedPassesAllocateNothingWarm).
//
// When every layer provides batched kernels (all built-in layers do), the
// pass runs as one blocked GEMM chain per direction over the batch×dim
// activation matrices — the arithmetic-bound Tc path (batch.go). Networks
// containing a layer without batched kernels fall back to the per-example
// reference pass.
func (n *Network) BatchLossGrad(pv paramvec.View, grad []float64, ds *data.Dataset, batch data.Batch, ws *Workspace) float64 {
	if n.blayers != nil && len(batch.Indices) > 0 {
		return n.batchLossGradGEMM(pv, grad, ds, batch, ws)
	}
	return n.BatchLossGradPerExample(pv, grad, ds, batch, ws)
}

// BatchLossGradPerExample is the per-example reference implementation of
// BatchLossGrad: it zeroes grad, then runs one accumulating forward/backward
// pass per minibatch row. It computes
// the same mean loss and gradient as the batched GEMM chain (only the
// floating-point summation order differs — the golden-equivalence tests pin
// the two paths together) and remains the fallback for layer types without
// batched kernels, as well as the baseline the batched-compute speedup is
// measured against.
func (n *Network) BatchLossGradPerExample(pv paramvec.View, grad []float64, ds *data.Dataset, batch data.Batch, ws *Workspace) float64 {
	if pv.Len() != n.d {
		panic("nn: BatchLossGrad params length mismatch")
	}
	invB := 1 / float64(len(batch.Indices))
	n.setDropoutEval(ws, false)
	clear(grad)
	var totalLoss float64
	for _, idx := range batch.Indices {
		logits := n.forward(pv, ds.X[idx], ws)
		totalLoss += softmaxCE(logits, ws.probs, ds.Y[idx])
		n.backprop(pv, grad, ds.Y[idx], invB, ws)
	}
	return totalLoss * invB
}

// evalBlock is the row block of the evaluation pass, chosen by measurement
// (re-run with the implicit-GEMM convolution; 256 rows, minimum over five
// interleaved runs of 25 rounds on a 2-vCPU AVX-512 host; workspace is what
// NewWorkspace and the first evaluation allocate):
//
//	block   PaperMLP   PaperCNN   CNN workspace
//	  4     2.73 ms    2.92 ms    0.40 MiB
//	  8     1.57 ms    2.75 ms    0.67 MiB
//	 16     1.44 ms    2.63 ms    1.17 MiB
//	 32     1.51 ms    2.75 ms    2.19 MiB
//
// 8 rows fill the vector lanes of either kernel tier (an 8-wide panel runs
// the AVX-512 kernel's half-width loop) and already turn the Dense layers'
// per-row GEMV into GEMM. The convolution no longer holds a batch-wide
// panel, so a larger block costs only activation buffers, but it buys
// nothing the host's run-to-run spread can show: 16 rows read 8% faster on
// the MLP and 4% on the CNN, with twice the buffers. A constant, not a
// knob.
const evalBlock = 8

// Evaluate returns the mean softmax-cross-entropy loss and the argmax
// accuracy over the samples selected by indices (all samples when indices is
// nil) in one forward pass; (NaN, 0) when no sample is selected. Rows are
// staged evalBlock at a time through the batched forward chain of batch.go;
// a network containing a layer without batched kernels runs the per-example
// chain instead. Inference: Dropout layers run as the identity. A warm call
// allocates nothing.
func (n *Network) Evaluate(params []float64, ds *data.Dataset, indices []int, ws *Workspace) (loss, accuracy float64) {
	if len(params) != n.d {
		panic("nn: Evaluate params length mismatch")
	}
	count := ds.Len()
	if indices != nil {
		count = len(indices)
	}
	if count == 0 {
		return math.NaN(), 0
	}
	pv := paramvec.FlatView(params)
	batched := n.blayers != nil
	if batched {
		n.ensureBatch(ws, min(evalBlock, count))
	}
	n.setDropoutEval(ws, true)
	var total float64
	correct := 0
	for lo := 0; lo < count; lo += evalBlock {
		B := min(evalBlock, count-lo)
		var logits tensor.Mat
		if batched {
			in := n.bact(ws, 0, B)
			for r := 0; r < B; r++ {
				copy(in.Row(r), ds.X[rowAt(indices, lo+r)])
			}
			logits = n.forwardBatch(pv, B, ws)
		}
		for r := 0; r < B; r++ {
			i := rowAt(indices, lo+r)
			var z []float64
			if batched {
				z = logits.Row(r)
			} else {
				z = n.forward(pv, ds.X[i], ws)
			}
			total += softmaxCE(z, ws.probs, ds.Y[i])
			if tensor.ArgMax(z) == ds.Y[i] {
				correct++
			}
		}
	}
	return total / float64(count), float64(correct) / float64(count)
}

// rowAt resolves the k-th selected sample: indices[k], or k itself when the
// selection is the whole dataset (nil indices).
func rowAt(indices []int, k int) int {
	if indices != nil {
		return indices[k]
	}
	return k
}

// Loss evaluates the mean cross-entropy over the samples selected by
// indices (all samples when indices is nil). Evaluation-only: no gradient.
func (n *Network) Loss(params []float64, ds *data.Dataset, indices []int, ws *Workspace) float64 {
	loss, _ := n.Evaluate(params, ds, indices, ws)
	return loss
}

// Accuracy returns the fraction of samples (selected by indices, or all)
// whose argmax prediction matches the label.
func (n *Network) Accuracy(params []float64, ds *data.Dataset, indices []int, ws *Workspace) float64 {
	_, acc := n.Evaluate(params, ds, indices, ws)
	return acc
}

// NewMLP builds input → hidden Dense+ReLU stacks → classes Dense, the
// paper's MLP shape (Table II uses hidden = {128,128,128}, classes = 10).
func NewMLP(inputDim int, hidden []int, classes int) *Network {
	var layers []Layer
	prev := inputDim
	for _, h := range hidden {
		layers = append(layers, NewDense(prev, h), NewReLU(h))
		prev = h
	}
	layers = append(layers, NewDense(prev, classes))
	return MustNetwork(layers...)
}

// NewPaperMLP is the exact Table II architecture: 784 → 128×3 → 10,
// d = 134,794.
func NewPaperMLP() *Network {
	return NewMLP(28*28, []int{128, 128, 128}, 10)
}

// NewPaperCNN is the exact Table III architecture:
// Conv(4 filters, 3×3) → Pool(2×2) → Conv(8, 3×3) → Pool(2×2) →
// Dense(128) → Dense(10), with ReLU on every conv and dense stage,
// d = 27,354. Each conv stage applies its ReLU after the pool: ReLU is
// monotone and maps every non-positive input to +0, so relu(pool(x)) and
// pool(relu(x)) agree bit for bit in value and in gradient, and the pooled
// order runs ReLU on a quarter of the elements. (A window whose max is ≤ 0
// may pick another winner, but the ReLU zeroes its gradient in both orders.)
// Neither layer has parameters, so θ's layout is that of the
// conv → ReLU → pool order. Each conv computes its output at its input's
// row width and its pool reads it there (Conv2D.Pool): no lowering and no
// compaction copy; the forward pass is bit-identical to the lowered
// convolution's.
func NewPaperCNN() *Network {
	conv1 := NewConv2D(1, 28, 28, 4, 3)     // → 4×26×26, rows 28 apart
	pool1 := conv1.Pool(2)                  // → 4×13×13
	relu1 := NewReLU(pool1.OutDim())        //
	conv2 := NewConv2D(4, 13, 13, 8, 3)     // → 8×11×11, rows 13 apart
	pool2 := conv2.Pool(2)                  // → 8×5×5 = 200
	relu2 := NewReLU(pool2.OutDim())        //
	dense1 := NewDense(pool2.OutDim(), 128) //
	relu3 := NewReLU(128)                   //
	dense2 := NewDense(128, 10)             //
	return MustNetwork(conv1, pool1, relu1, conv2, pool2, relu2, dense1, relu3, dense2)
}

// NewSmallMLP is a scaled-down MLP (input → 32 → 10) used by tests and the
// laptop-scale default experiments, where the paper-scale d=134,794 model
// would make every run minutes long.
func NewSmallMLP(inputDim, classes int) *Network {
	return NewMLP(inputDim, []int{32}, classes)
}

// NewSmallCNN is a scaled-down CNN with the same layer types as the paper's
// (conv→pool→conv→pool→dense→dense) for fast experiment runs; like
// NewPaperCNN it applies each conv stage's ReLU after the pool.
func NewSmallCNN() *Network {
	conv1 := NewConv2D(1, 28, 28, 2, 3) // → 2×26×26, rows 28 apart
	pool1 := conv1.Pool(2)              // → 2×13×13
	relu1 := NewReLU(pool1.OutDim())
	conv2 := NewConv2D(2, 13, 13, 4, 3) // → 4×11×11, rows 13 apart
	pool2 := conv2.Pool(2)              // → 4×5×5 = 100
	relu2 := NewReLU(pool2.OutDim())
	dense1 := NewDense(pool2.OutDim(), 32)
	relu3 := NewReLU(32)
	dense2 := NewDense(32, 10)
	return MustNetwork(conv1, pool1, relu1, conv2, pool2, relu2, dense1, relu3, dense2)
}
