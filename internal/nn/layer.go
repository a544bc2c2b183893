// Package nn is the deep-learning substrate: dense, convolutional, pooling
// and activation layers with backpropagation. It fills the role of the
// paper's MiniDNN fork after the "substantial refactoring" described in
// Sec. V-1: every learnable parameter of a network lives in ONE flat
// []float64 — the parameter vector θ — and every layer operates on views
// into it. Gradients are produced into an equally-shaped flat vector.
//
// This flat binding is what lets the SGD algorithms in internal/sgd treat
// the whole model as a single shared object (the ParameterVector) and is the
// interface boundary between "DL operations" and "parallel SGD algorithms"
// that the paper's framework establishes.
//
// There is one compute path: every layer runs over a minibatch as a
// batch×dim matrix (one GEMM per Dense layer and direction), and a single
// example — a served prediction, Network.Forward — is a batch of one.
//
// Layers are immutable descriptors; all mutable per-inference state lives in
// a Workspace so that any number of workers can evaluate the same Network
// against the same or different parameter memory concurrently.
package nn

import (
	"fmt"

	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/tensor"
)

// Layer is one stage of a feed-forward network, evaluated over a minibatch:
// its kernels take batch×dim matrices whose row r is example r's activation
// (row-major, so every kernel sees contiguous per-example rows), and a single
// example is a batch of one. Implementations are stateless: parameters and
// gradients are slices handed in per call (views into the flat θ and ∇θ
// vectors), activations and scratch live in the Workspace.
type Layer interface {
	// InDim and OutDim are the flattened per-example input/output sizes.
	InDim() int
	OutDim() int
	// ParamCount is the number of learnable parameters the layer owns in
	// the flat vector.
	ParamCount() int
	// ForwardBatch computes out from in using params (len == ParamCount).
	// scratch is the layer's slot from NewBatchScratch.
	ForwardBatch(params []float64, in, out tensor.Mat, scratch any)
	// BackwardBatch computes dIn from dOut and OVERWRITES grad (same length
	// as params) with the batch's parameter gradient: one pass is the whole
	// minibatch gradient, so first-touch stores replace a zeroing pass over
	// θ's length per iteration. in/out are the activations recorded by the
	// matching ForwardBatch. dIn is the zero Mat (nil Data) for the first
	// layer, where the input gradient is not needed.
	BackwardBatch(params, grad []float64, in, out, dOut, dIn tensor.Mat, scratch any)
	// NewBatchScratch allocates the per-worker temporaries the kernels need
	// for batches of up to batch rows (staging panels, run offsets, argmax
	// indices); nil if none.
	NewBatchScratch(batch int) any
	// Name describes the layer for architecture listings.
	Name() string
}

// Dense is a fully connected layer: out = W·in + b, with W stored row-major
// (OutDim × InDim) followed by the bias vector in the parameter block.
type Dense struct {
	In, Out int
}

// NewDense returns a Dense layer with the given fan-in and fan-out.
func NewDense(in, out int) *Dense {
	if in <= 0 || out <= 0 {
		panic("nn: Dense dimensions must be positive")
	}
	return &Dense{In: in, Out: out}
}

func (d *Dense) InDim() int      { return d.In }
func (d *Dense) OutDim() int     { return d.Out }
func (d *Dense) ParamCount() int { return d.Out*d.In + d.Out }
func (d *Dense) Name() string    { return fmt.Sprintf("Dense(%d→%d)", d.In, d.Out) }

func (d *Dense) weights(params []float64) tensor.Mat {
	return tensor.MatFrom(d.Out, d.In, params[:d.Out*d.In])
}

func (d *Dense) biases(params []float64) []float64 {
	return params[d.Out*d.In:]
}

// denseBatchScratch holds the staging buffers of the batched Dense kernels.
type denseBatchScratch struct {
	// inT is the layer input feature-major (In × batch): the contiguous-row
	// operand of outᵀ = W·inᵀ. Only the batch-sized activation is ever
	// staged — the weights are read in place, never packed or transposed.
	inT []float64
	// outT is outᵀ (Out × batch) before it is transposed into out; the
	// segment-split backward pass reuses it as its dOut column-block staging.
	outT []float64
	row  []float64 // one boundary-straddling weight row, stitched
	bias []float64 // gathered bias block
}

func (d *Dense) NewBatchScratch(batch int) any {
	return &denseBatchScratch{
		inT:  make([]float64, d.In*batch),
		outT: make([]float64, d.Out*batch),
		row:  make([]float64, d.In),
		bias: make([]float64, d.Out),
	}
}

// stage transposes the batch-major input into the feature-major panel and
// returns it with the matching (still unwritten) output panel.
func (s *denseBatchScratch) stage(d *Dense, in tensor.Mat) (inT, outT tensor.Mat) {
	B := in.Rows
	inT = tensor.MatFrom(d.In, B, s.inT[:d.In*B])
	tensor.Transpose(inT, in)
	return inT, tensor.MatFrom(d.Out, B, s.outT[:d.Out*B])
}

// ForwardBatch computes out = in·Wᵀ + b over the whole minibatch as
// outᵀ = W·inᵀ: W is the broadcast operand of the tile GEMM, read where it
// lies in θ, and the batch columns are its vector lanes. A single row is a
// vector — both layouts coincide — and runs as the dot-orientation GEMV
// (out = in·Wᵀ directly), where W streams through once.
func (d *Dense) ForwardBatch(params []float64, in, out tensor.Mat, scratch any) {
	if in.Rows == 1 {
		tensor.MatMulABT(out, in, d.weights(params))
	} else {
		inT, outT := scratch.(*denseBatchScratch).stage(d, in)
		tensor.MatMul(outT, d.weights(params), inT)
		tensor.Transpose(out, outT)
	}
	tensor.AddBiasRows(out, d.biases(params))
}

// BackwardBatch writes dW = dOutᵀ·in and db = column sums of dOut into the
// layer's gradient block (overwriting it: the batch IS the whole gradient,
// so nothing has to be zeroed first) and computes dIn = dOut·W — each one
// GEMM over the batch.
func (d *Dense) BackwardBatch(params, grad []float64, in, _, dOut, dIn tensor.Mat, _ any) {
	tensor.MatMulATB(d.weights(grad), dOut, in)
	tensor.ColSums(d.biases(grad), dOut)
	if dIn.Data != nil {
		tensor.MatMul(dIn, dOut, d.weights(params))
	}
}

// Dense is the parameter mass of every architecture here (the paper's MLP is
// 99.9% Dense weights), so on a segmented view it splits its GEMMs at the
// segment boundaries (batchViewLayer) instead of gathering its block.
//
// weightRuns iterates the weight block [lo, lo+Out*In) of a segmented view
// as maximal GEMM-able pieces: runs of complete W rows inside one segment
// yield zero-copy sub-matrices, and the at most S−1 rows straddling a
// segment boundary are stitched into the scratch row buffer one at a time.
// yield receives the first output row o of the piece and the piece as an
// nRows×In matrix.
func (d *Dense) weightRuns(pv paramvec.View, lo int, s *denseBatchScratch, yield func(o int, w tensor.Mat)) {
	wEnd := lo + d.Out*d.In
	o := 0
	for o < d.Out {
		rowLo := lo + o*d.In
		piece := pv.Tail(rowLo, wEnd)
		nRows := len(piece) / d.In
		var w tensor.Mat
		if nRows == 0 {
			// The row straddles the segment boundary: stitch it.
			w = tensor.MatFrom(1, d.In, pv.Gather(rowLo, rowLo+d.In, s.row))
			nRows = 1
		} else {
			w = tensor.MatFrom(nRows, d.In, piece[:nRows*d.In])
		}
		yield(o, w)
		o += nRows
	}
}

// ForwardBatchView is the segment-aware batched forward pass: the GEMM is
// split at segment boundaries, and because the output is computed
// feature-major every run of complete weight rows inside one segment writes
// one contiguous row block of outᵀ (of out itself for a single row) — no
// column scatter.
func (d *Dense) ForwardBatchView(pv paramvec.View, lo int, in, out tensor.Mat, scratch any) {
	s := scratch.(*denseBatchScratch)
	B := in.Rows
	if B == 1 {
		d.weightRuns(pv, lo, s, func(o int, w tensor.Mat) {
			tensor.MatMulABT(tensor.MatFrom(1, w.Rows, out.Data[o:o+w.Rows]), in, w)
		})
	} else {
		inT, outT := s.stage(d, in)
		d.weightRuns(pv, lo, s, func(o int, w tensor.Mat) {
			tensor.MatMul(tensor.MatFrom(w.Rows, B, outT.Data[o*B:(o+w.Rows)*B]), w, inT)
		})
		tensor.Transpose(out, outT)
	}
	wEnd := lo + d.Out*d.In
	tensor.AddBiasRows(out, pv.Gather(wEnd, wEnd+d.Out, s.bias))
}

// BackwardBatchView writes dW = dOutᵀ·in and db = column sums (into the
// flat private grad — never segmented) and computes dIn = dOut·W with the
// GEMM split at segment boundaries, each run contributing one MatMulAdd.
func (d *Dense) BackwardBatchView(pv paramvec.View, lo int, grad []float64, in, _, dOut, dIn tensor.Mat, scratch any) {
	tensor.MatMulATB(d.weights(grad), dOut, in)
	tensor.ColSums(d.biases(grad), dOut)
	if dIn.Data == nil {
		return
	}
	s := scratch.(*denseBatchScratch)
	dIn.Zero()
	B := dOut.Rows
	d.weightRuns(pv, lo, s, func(o int, w tensor.Mat) {
		tmp := tensor.MatFrom(B, w.Rows, s.outT[:B*w.Rows])
		for b := 0; b < B; b++ {
			copy(tmp.Row(b), dOut.Row(b)[o:o+w.Rows])
		}
		tensor.MatMulAdd(dIn, tmp, w)
	})
}

// ReLU applies max(0, x) element-wise. It owns no parameters.
type ReLU struct {
	Dim int
}

// NewReLU returns a ReLU over dim elements.
func NewReLU(dim int) *ReLU {
	if dim <= 0 {
		panic("nn: ReLU dimension must be positive")
	}
	return &ReLU{Dim: dim}
}

func (r *ReLU) InDim() int      { return r.Dim }
func (r *ReLU) OutDim() int     { return r.Dim }
func (r *ReLU) ParamCount() int { return 0 }
func (r *ReLU) Name() string    { return fmt.Sprintf("ReLU(%d)", r.Dim) }

// The kernels are tensor.ReLU and tensor.ReLUBackward over the contiguous
// batch×dim backing, the whole minibatch in one pass: branchless bit masks
// (a compare-and-branch per element would mispredict on half the data), at
// vector width where the host has it.

func (r *ReLU) NewBatchScratch(int) any { return nil }

func (r *ReLU) ForwardBatch(_ []float64, in, out tensor.Mat, _ any) {
	tensor.ReLU(out.Data, in.Data)
}

func (r *ReLU) BackwardBatch(_, _ []float64, in, _, dOut, dIn tensor.Mat, _ any) {
	if dIn.Data == nil {
		return
	}
	tensor.ReLUBackward(dIn.Data, in.Data, dOut.Data)
}
