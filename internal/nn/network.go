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
	}
	n.inDim = layers[0].InDim()
	n.outDim = layers[len(layers)-1].OutDim()
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

// Workspace holds one worker's mutable evaluation state: one batch×dim
// activation buffer per layer boundary, per-layer scratch and the softmax
// staging, and — only once a gradient pass has run — the matching delta
// buffers, all sized lazily to the largest batch seen (batch.go), so
// steady-state passes allocate nothing. Workspaces are not safe for
// concurrent use; allocate one per worker.
type Workspace struct {
	cap     int         // largest batch the forward buffers are sized for
	acts    [][]float64 // acts[i]: cap × boundary-dim backing, row-major
	scratch []any       // per-layer scratch from NewBatchScratch
	probs   []float64   // cap × outDim softmax staging
	// The backward half, sized by ensureBatchGrad: a workspace that only
	// infers or evaluates (the monitor's, the serving tier's) never pays
	// for it.
	gradCap int         // batch the delta buffers are sized for
	deltas  [][]float64 // deltas[i]: same shape as acts[i]; deltas[0] unused (no input grad)
	// stitch[i] is layer i's gather target, allocated on first use — only
	// a parameterized layer without a segment-split kernel (batchViewLayer)
	// whose block actually straddles a segment boundary ever needs one.
	// After the first fallback the buffer is reused, keeping the
	// segmented-view hot path allocation-free; flat-view runs never pay
	// for it.
	stitch [][]float64
}

// NewWorkspace allocates a workspace for this network. Its buffers are
// sized by the first pass that uses it.
func (n *Network) NewWorkspace() *Workspace {
	return &Workspace{
		acts:    make([][]float64, len(n.layers)+1),
		scratch: make([]any, len(n.layers)),
		stitch:  make([][]float64, len(n.layers)),
	}
}

// stitchFor returns layer i's reusable gather buffer, allocating it on the
// first segmented-fallback use.
func (n *Network) stitchFor(ws *Workspace, i int) []float64 {
	if ws.stitch[i] == nil {
		ws.stitch[i] = make([]float64, n.layers[i].ParamCount())
	}
	return ws.stitch[i]
}

// ForwardView runs the network on one example x (length InDim) against a
// (possibly segmented) parameter view — a batch of one through ForwardBatch —
// and returns the logits slice, which aliases workspace storage and is valid
// until the next use of ws.
func (n *Network) ForwardView(pv paramvec.View, x []float64, ws *Workspace) []float64 {
	return n.ForwardBatch(pv, [][]float64{x}, ws).Row(0)
}

// Forward is ForwardView over the flat parameters params.
func (n *Network) Forward(params, x []float64, ws *Workspace) []float64 {
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

// evalBlock is the row block of the evaluation pass, chosen by measurement
// (re-run with the vector pool and ReLU; 256 rows, minimum over five
// interleaved runs of 25 rounds on a 2-vCPU AVX-512 host; workspace is what
// NewWorkspace and the first evaluation allocate, which the vector kernels
// did not change):
//
//	block   PaperMLP   PaperCNN   CNN workspace
//	  4     3.10 ms    2.49 ms    0.40 MiB
//	  8     1.57 ms    1.85 ms    0.67 MiB
//	 16     1.45 ms    1.75 ms    1.17 MiB
//	 32     1.47 ms    1.93 ms    2.19 MiB
//
// 8 rows fill the vector lanes of either kernel tier (an 8-wide panel runs
// the AVX-512 kernel's half-width loop) and already turn the Dense layers'
// per-row GEMV into GEMM. The convolution holds no batch-wide panel, so a
// larger block costs only activation buffers, but it buys nothing the
// host's run-to-run spread can show: 16 rows read 8% faster on the MLP and
// 5% on the CNN, with twice the buffers. A constant, not a knob.
const evalBlock = 8

// Evaluate returns the mean softmax-cross-entropy loss and the argmax
// accuracy over the samples selected by indices (all samples when indices is
// nil) in one forward pass; (NaN, 0) when no sample is selected. Rows are
// staged evalBlock at a time through the forward chain of batch.go. A warm
// call allocates nothing.
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
	n.ensureBatch(ws, min(evalBlock, count))
	var total float64
	correct := 0
	for lo := 0; lo < count; lo += evalBlock {
		B := min(evalBlock, count-lo)
		in := n.bact(ws, 0, B)
		for r := 0; r < B; r++ {
			copy(in.Row(r), ds.X[rowAt(indices, lo+r)])
		}
		logits := n.forwardBatch(pv, B, ws)
		for r := 0; r < B; r++ {
			i := rowAt(indices, lo+r)
			z := logits.Row(r)
			total += softmaxCE(z, ws.probs[:n.outDim], ds.Y[i])
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
