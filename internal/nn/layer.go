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
// Layers are immutable descriptors; all mutable per-inference state lives in
// a Workspace so that any number of workers can evaluate the same Network
// against the same or different parameter memory concurrently.
package nn

import (
	"fmt"

	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/tensor"
)

// Layer is one stage of a feed-forward network. Implementations are
// stateless: parameters and gradient accumulators are slices handed in per
// call (views into the flat θ and ∇θ vectors), activations live in the
// Workspace.
type Layer interface {
	// InDim and OutDim are the flattened input/output sizes.
	InDim() int
	OutDim() int
	// ParamCount is the number of learnable parameters the layer owns in
	// the flat vector.
	ParamCount() int
	// Forward computes out from in using params (len == ParamCount).
	// scratch is the layer's slot from NewScratch and may be nil for
	// layers that return nil there.
	Forward(params, in, out []float64, scratch any)
	// Backward computes dIn from dOut and accumulates the parameter
	// gradient into grad (same length as params). in/out are the
	// activations recorded during the matching Forward call. dIn may be
	// nil for the first layer (input gradient not needed).
	Backward(params, grad, in, out, dOut, dIn []float64, scratch any)
	// NewScratch allocates whatever per-worker temporary storage Forward
	// and Backward need (run offsets, argmax indices); nil if none.
	NewScratch() any
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
func (d *Dense) NewScratch() any { return nil }
func (d *Dense) Name() string    { return fmt.Sprintf("Dense(%d→%d)", d.In, d.Out) }

func (d *Dense) weights(params []float64) tensor.Mat {
	return tensor.MatFrom(d.Out, d.In, params[:d.Out*d.In])
}

func (d *Dense) biases(params []float64) []float64 {
	return params[d.Out*d.In:]
}

// Forward computes out = W·in + b.
func (d *Dense) Forward(params, in, out []float64, _ any) {
	w := d.weights(params)
	tensor.MatVec(out, w, in)
	tensor.Axpy(1, d.biases(params), out)
}

// Backward accumulates dW += dOut⊗in, db += dOut and computes dIn = Wᵀ·dOut.
func (d *Dense) Backward(params, grad, in, _, dOut, dIn []float64, _ any) {
	gw := d.weights(grad)
	tensor.OuterAdd(gw, 1, dOut, in)
	tensor.Axpy(1, dOut, d.biases(grad))
	if dIn != nil {
		w := d.weights(params)
		tensor.MatTVec(dIn, w, dOut)
	}
}

// Dense is the parameter mass of every architecture here (the paper's MLP is
// 99.9% Dense weights), so it gets true segment-aware kernels: a weight row
// that straddles a segment boundary is processed as two (or more) contiguous
// dot products / axpys instead of being copied. Rows that fit inside one
// segment — all but at most S−1 of them — run the same tight inner loops as
// the flat path.

// ForwardView computes out = W·in + b reading W and b through the view.
func (d *Dense) ForwardView(pv paramvec.View, lo int, in, out []float64, _ any) {
	wEnd := lo + d.Out*d.In
	for o := 0; o < d.Out; o++ {
		rowLo := lo + o*d.In
		rowHi := rowLo + d.In
		var acc float64
		j := 0
		for pos := rowLo; pos < rowHi; {
			piece := pv.Tail(pos, rowHi)
			acc += tensor.Dot(piece, in[j:j+len(piece)])
			j += len(piece)
			pos += len(piece)
		}
		out[o] = acc
	}
	o := 0
	for pos := wEnd; pos < wEnd+d.Out; {
		piece := pv.Tail(pos, wEnd+d.Out)
		for k, b := range piece {
			out[o+k] += b
		}
		o += len(piece)
		pos += len(piece)
	}
}

// BackwardView accumulates dW += dOut⊗in, db += dOut (into the flat private
// grad — never segmented) and computes dIn = Wᵀ·dOut reading W through the
// view.
func (d *Dense) BackwardView(pv paramvec.View, lo int, grad, in, _, dOut, dIn []float64, _ any) {
	gw := d.weights(grad)
	tensor.OuterAdd(gw, 1, dOut, in)
	tensor.Axpy(1, dOut, d.biases(grad))
	if dIn == nil {
		return
	}
	tensor.Fill(dIn, 0)
	for o := 0; o < d.Out; o++ {
		g := dOut[o]
		if g == 0 {
			continue
		}
		rowLo := lo + o*d.In
		rowHi := rowLo + d.In
		j := 0
		for pos := rowLo; pos < rowHi; {
			piece := pv.Tail(pos, rowHi)
			tensor.Axpy(g, piece, dIn[j:j+len(piece)])
			j += len(piece)
			pos += len(piece)
		}
	}
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
func (r *ReLU) NewScratch() any { return nil }
func (r *ReLU) Name() string    { return fmt.Sprintf("ReLU(%d)", r.Dim) }

// Forward and Backward are tensor.ReLU and tensor.ReLUBackward: branchless
// bit masks (a compare-and-branch per element would mispredict on half the
// data), at vector width where the host has it.
func (r *ReLU) Forward(_, in, out []float64, _ any) { tensor.ReLU(out, in) }

func (r *ReLU) Backward(_, _, in, _, dOut, dIn []float64, _ any) {
	if dIn == nil {
		return
	}
	tensor.ReLUBackward(dIn, in, dOut)
}

// The batched activation kernels run one pass over the contiguous batch×dim
// backing — the whole minibatch in a single loop.

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
