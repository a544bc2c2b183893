package nn

import (
	"leashedsgd/internal/data"
	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/tensor"
)

// The batched compute path. The per-example gradient pass reduces every
// Dense layer to repeated GEMV — the weight matrix is re-streamed from
// memory once per minibatch example with no reuse. The batched path instead
// stacks the minibatch into a batch×dim matrix at every layer boundary and
// runs ONE blocked GEMM per layer per direction, which is what makes the
// per-iteration gradient wall-clock (the paper's Tc, the unit every
// contention result is normalized against) arithmetic-bound. The SGD worker
// loop is unchanged: BatchLossGrad keeps its signature and routes through
// the GEMM chain whenever every layer provides batched kernels.

// batchLayer is the batched kernel interface: Forward/Backward over
// batch×dim matrices whose row r is example r's activation (row-major, so
// every kernel sees contiguous per-example rows). Scratch comes from
// NewBatchScratch sized for the workspace's current batch capacity; layers
// without per-batch temporaries return nil.
//
// BackwardBatch OVERWRITES the layer's block of grad with the batch's
// parameter gradient (the per-example Backward accumulates): one batched
// pass is the whole minibatch gradient, so first-touch stores replace a
// zero-the-vector pass over all of θ's length per iteration. dIn may be the
// zero Mat (nil Data) for the first layer, where the input gradient is not
// needed.
type batchLayer interface {
	ForwardBatch(params []float64, in, out tensor.Mat, scratch any)
	BackwardBatch(params, grad []float64, in, out, dOut, dIn tensor.Mat, scratch any)
	NewBatchScratch(batch int) any
}

// batchViewLayer is the segment-aware batched kernel interface, the batched
// counterpart of viewLayer: the GEMM is split at segment boundaries so a
// leased sharded read stays zero-copy. Only layers whose parameter block
// dominates θ (Dense) implement it; everything else stitches its small
// block through the pre-sized gather buffer.
type batchViewLayer interface {
	ForwardBatchView(pv paramvec.View, lo int, in, out tensor.Mat, scratch any)
	BackwardBatchView(pv paramvec.View, lo int, grad []float64, in, out, dOut, dIn tensor.Mat, scratch any)
}

// batchBuffers is the batch-shaped half of a Workspace: one batch×dim
// activation buffer per layer boundary plus per-layer batch scratch, and —
// only once a gradient pass has run — the matching delta buffers, all sized
// lazily to the largest batch seen so steady-state passes allocate nothing.
type batchBuffers struct {
	cap     int         // largest batch the buffers are sized for
	acts    [][]float64 // acts[i]: cap × boundary-dim backing, row-major
	scratch []any       // per-layer batch scratch from NewBatchScratch
	// The backward half, sized by ensureBatchGrad: a workspace that only
	// infers or evaluates (the monitor's, the serving tier's) never pays
	// for it.
	gradCap int         // batch the two buffers below are sized for
	deltas  [][]float64 // deltas[i]: same shape as acts[i]; deltas[0] unused (no input grad)
	probs   []float64   // gradCap × outDim softmax staging
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
	bb := &ws.batch
	if B <= bb.cap {
		return
	}
	if bb.acts == nil {
		bb.acts = make([][]float64, len(n.layers)+1)
		bb.scratch = make([]any, len(n.layers))
	}
	bb.acts[0] = make([]float64, B*n.inDim)
	for i, l := range n.layers {
		bb.acts[i+1] = make([]float64, B*l.OutDim())
		bb.scratch[i] = n.blayers[i].NewBatchScratch(B)
	}
	bb.cap = B
}

// ensureBatchGrad is ensureBatch for a gradient pass: it also sizes the
// delta and softmax buffers to the forward capacity.
func (n *Network) ensureBatchGrad(ws *Workspace, B int) {
	n.ensureBatch(ws, B)
	bb := &ws.batch
	if bb.gradCap >= bb.cap {
		return
	}
	bb.deltas = make([][]float64, len(n.layers)+1)
	for i, l := range n.layers {
		bb.deltas[i+1] = make([]float64, bb.cap*l.OutDim())
	}
	bb.probs = make([]float64, bb.cap*n.outDim)
	bb.gradCap = bb.cap
}

// bact returns boundary i's activation buffer viewed as a B×dim matrix.
func (n *Network) bact(ws *Workspace, i, B int) tensor.Mat {
	dim := n.boundaryDim(i)
	return tensor.MatFrom(B, dim, ws.batch.acts[i][:B*dim])
}

// bdelta returns boundary i's delta buffer viewed as a B×dim matrix.
func (n *Network) bdelta(ws *Workspace, i, B int) tensor.Mat {
	dim := n.boundaryDim(i)
	return tensor.MatFrom(B, dim, ws.batch.deltas[i][:B*dim])
}

// layerForwardBatch runs layer i's batched forward pass against the
// parameter view, with the same three-way dispatch as the per-example path:
// contiguous fast path, segment-split GEMM, or stitch fallback.
func (n *Network) layerForwardBatch(pv paramvec.View, i, B int, ws *Workspace) {
	l := n.blayers[i]
	lo := n.offsets[i]
	hi := lo + n.layers[i].ParamCount()
	in, out := n.bact(ws, i, B), n.bact(ws, i+1, B)
	if p, ok := pv.Slice(lo, hi); ok {
		l.ForwardBatch(p, in, out, ws.batch.scratch[i])
	} else if vl, ok := l.(batchViewLayer); ok {
		vl.ForwardBatchView(pv, lo, in, out, ws.batch.scratch[i])
	} else {
		l.ForwardBatch(pv.Gather(lo, hi, n.stitchFor(ws, i)), in, out, ws.batch.scratch[i])
	}
}

// forwardBatch runs the batched forward chain over the B rows staged in the
// boundary-0 activation buffer and returns the B×OutDim logits, which alias
// workspace storage.
func (n *Network) forwardBatch(pv paramvec.View, B int, ws *Workspace) tensor.Mat {
	for i := range n.layers {
		n.layerForwardBatch(pv, i, B, ws)
	}
	return n.bact(ws, len(n.layers), B)
}

// layerBackwardBatch is the batched counterpart of layerBackward. grad is
// always the flat private gradient vector — only the parameter READ is
// segmented.
func (n *Network) layerBackwardBatch(pv paramvec.View, i int, grad []float64, dOut, dIn tensor.Mat, B int, ws *Workspace) {
	l := n.blayers[i]
	lo := n.offsets[i]
	hi := lo + n.layers[i].ParamCount()
	in, out := n.bact(ws, i, B), n.bact(ws, i+1, B)
	lg := n.layerParams(grad, i)
	if p, ok := pv.Slice(lo, hi); ok {
		l.BackwardBatch(p, lg, in, out, dOut, dIn, ws.batch.scratch[i])
	} else if vl, ok := l.(batchViewLayer); ok {
		vl.BackwardBatchView(pv, lo, lg, in, out, dOut, dIn, ws.batch.scratch[i])
	} else {
		l.BackwardBatch(pv.Gather(lo, hi, n.stitchFor(ws, i)), lg, in, out, dOut, dIn, ws.batch.scratch[i])
	}
}

// batchLossGradGEMM is the batched gradient pass: gather the minibatch rows
// into the batch input matrix, run one forward GEMM chain, compute the
// softmax-cross-entropy deltas for all rows, and run one backward GEMM
// chain that writes every layer's block of grad (whatever grad held is
// overwritten). Semantically identical to the per-example pass (same mean
// loss, same mean gradient — only floating-point summation order differs).
func (n *Network) batchLossGradGEMM(pv paramvec.View, grad []float64, ds *data.Dataset, batch data.Batch, ws *Workspace) float64 {
	B := len(batch.Indices)
	n.ensureBatchGrad(ws, B)
	n.setDropoutEval(ws, false)
	in := n.bact(ws, 0, B)
	for r, idx := range batch.Indices {
		copy(in.Row(r), ds.X[idx])
	}
	logits := n.forwardBatch(pv, B, ws)
	nl := len(n.layers)
	probs := tensor.MatFrom(B, n.outDim, ws.batch.probs[:B*n.outDim])
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
