package nn

import (
	"leashedsgd/internal/data"
	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/tensor"
)

// The compute path. Every pass stacks its rows into a batch×dim matrix at
// each layer boundary and runs each layer's kernels once over the whole
// batch: ONE blocked GEMM per Dense layer per direction, which is what makes
// the per-iteration gradient wall-clock (the paper's Tc, the unit every
// contention result is normalized against) arithmetic-bound, where one GEMV
// per example would re-stream every weight matrix once per example. A
// single example is a batch of one: Dense runs it as the dot-orientation
// GEMV, and every other kernel is the same code at B = 1.

// batchViewLayer is the optional segment-aware kernel interface: the GEMM is
// split at segment boundaries so a leased sharded read stays zero-copy. Only
// layers whose parameter block dominates θ (Dense) implement it; everything
// else stitches its small block through the pre-sized gather buffer.
type batchViewLayer interface {
	ForwardBatchView(pv paramvec.View, lo int, in, out tensor.Mat, scratch any)
	BackwardBatchView(pv paramvec.View, lo int, grad []float64, in, out, dOut, dIn tensor.Mat, scratch any)
}

// boundaryDim returns the activation width at layer boundary i (the input
// of layer i, or the network output for i == len(layers)).
func (n *Network) boundaryDim(i int) int {
	if i == 0 {
		return n.inDim
	}
	return n.layers[i-1].OutDim()
}

// ensureBatch grows the workspace's forward batch buffers to hold batches of
// B examples. Growth is monotone: after the largest batch has been seen
// once, every later call is a no-op and the batched pass is allocation-free.
func (n *Network) ensureBatch(ws *Workspace, B int) {
	if B <= ws.cap {
		return
	}
	ws.acts[0] = make([]float64, B*n.inDim)
	for i, l := range n.layers {
		ws.acts[i+1] = make([]float64, B*l.OutDim())
		ws.scratch[i] = l.NewBatchScratch(B)
	}
	ws.probs = make([]float64, B*n.outDim)
	ws.cap = B
}

// ensureBatchGrad is ensureBatch for a gradient pass: it also sizes the
// delta buffers to the forward capacity.
func (n *Network) ensureBatchGrad(ws *Workspace, B int) {
	n.ensureBatch(ws, B)
	if ws.gradCap >= ws.cap {
		return
	}
	ws.deltas = make([][]float64, len(n.layers)+1)
	for i, l := range n.layers {
		ws.deltas[i+1] = make([]float64, ws.cap*l.OutDim())
	}
	ws.gradCap = ws.cap
}

// bact returns boundary i's activation buffer viewed as a B×dim matrix.
func (n *Network) bact(ws *Workspace, i, B int) tensor.Mat {
	dim := n.boundaryDim(i)
	return tensor.MatFrom(B, dim, ws.acts[i][:B*dim])
}

// bdelta returns boundary i's delta buffer viewed as a B×dim matrix.
func (n *Network) bdelta(ws *Workspace, i, B int) tensor.Mat {
	dim := n.boundaryDim(i)
	return tensor.MatFrom(B, dim, ws.deltas[i][:B*dim])
}

// layerForwardBatch runs layer i's forward pass against the parameter view:
// the contiguous fast path (always taken for flat views, and for any layer
// that fits inside one segment), the segment-split GEMM, or the stitch
// fallback.
func (n *Network) layerForwardBatch(pv paramvec.View, i, B int, ws *Workspace) {
	l := n.layers[i]
	lo := n.offsets[i]
	hi := lo + l.ParamCount()
	in, out := n.bact(ws, i, B), n.bact(ws, i+1, B)
	if p, ok := pv.Slice(lo, hi); ok {
		l.ForwardBatch(p, in, out, ws.scratch[i])
	} else if vl, ok := l.(batchViewLayer); ok {
		vl.ForwardBatchView(pv, lo, in, out, ws.scratch[i])
	} else {
		l.ForwardBatch(pv.Gather(lo, hi, n.stitchFor(ws, i)), in, out, ws.scratch[i])
	}
}

// forwardBatch runs the forward chain over the B rows staged in the
// boundary-0 activation buffer and returns the B×OutDim logits, which alias
// workspace storage.
func (n *Network) forwardBatch(pv paramvec.View, B int, ws *Workspace) tensor.Mat {
	for i := range n.layers {
		n.layerForwardBatch(pv, i, B, ws)
	}
	return n.bact(ws, len(n.layers), B)
}

// layerBackwardBatch is the backward counterpart of layerForwardBatch. grad
// is always the flat private gradient vector — only the parameter READ is
// segmented.
func (n *Network) layerBackwardBatch(pv paramvec.View, i int, grad []float64, dOut, dIn tensor.Mat, B int, ws *Workspace) {
	l := n.layers[i]
	lo := n.offsets[i]
	hi := lo + l.ParamCount()
	in, out := n.bact(ws, i, B), n.bact(ws, i+1, B)
	lg := n.layerParams(grad, i)
	if p, ok := pv.Slice(lo, hi); ok {
		l.BackwardBatch(p, lg, in, out, dOut, dIn, ws.scratch[i])
	} else if vl, ok := l.(batchViewLayer); ok {
		vl.BackwardBatchView(pv, lo, lg, in, out, dOut, dIn, ws.scratch[i])
	} else {
		l.BackwardBatch(pv.Gather(lo, hi, n.stitchFor(ws, i)), lg, in, out, dOut, dIn, ws.scratch[i])
	}
}

// BatchLossGrad is the gradient entry point of the SGD hot path: mean
// softmax-cross-entropy loss and gradient over the dataset rows selected by
// batch, reading the parameters through a View. It gathers the rows into the
// batch input matrix, runs one forward chain, computes every row's softmax
// deltas, and runs one backward chain that OVERWRITES every layer's block of
// grad — callers need not (and the worker loop does not) zero it between
// iterations. The view may be flat (paramvec.FlatView over a private copy —
// the lock-based and HOGWILD! read protocols) or segmented (a leased
// zero-copy read of the published chain buffers — paramvec.Lease.Acquire),
// in which case segment-split kernels and pre-sized stitch buffers keep the
// pass allocation-free (TestBatchedPassesAllocateNothingWarm).
func (n *Network) BatchLossGrad(pv paramvec.View, grad []float64, ds *data.Dataset, batch data.Batch, ws *Workspace) float64 {
	if pv.Len() != n.d {
		panic("nn: BatchLossGrad params length mismatch")
	}
	if len(batch.Indices) == 0 {
		panic("nn: BatchLossGrad with an empty batch")
	}
	B := len(batch.Indices)
	n.ensureBatchGrad(ws, B)
	in := n.bact(ws, 0, B)
	for r, idx := range batch.Indices {
		copy(in.Row(r), ds.X[idx])
	}
	logits := n.forwardBatch(pv, B, ws)
	nl := len(n.layers)
	probs := tensor.MatFrom(B, n.outDim, ws.probs[:B*n.outDim])
	dLogits := n.bdelta(ws, nl, B)
	invB := 1 / float64(B)
	var totalLoss float64
	for r := 0; r < B; r++ {
		y := ds.Y[batch.Indices[r]]
		pRow := probs.Row(r)
		totalLoss += softmaxCE(logits.Row(r), pRow, y)
		dRow := dLogits.Row(r)
		for j, p := range pRow {
			dRow[j] = p * invB
		}
		dRow[y] -= invB
	}
	for i := nl - 1; i >= 0; i-- {
		var dIn tensor.Mat
		if i > 0 {
			dIn = n.bdelta(ws, i, B)
		}
		n.layerBackwardBatch(pv, i, grad, n.bdelta(ws, i+1, B), dIn, B, ws)
	}
	return totalLoss * invB
}
