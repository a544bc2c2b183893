package nn

import (
	"fmt"

	"leashedsgd/internal/tensor"
)

// Conv2D is a valid (no padding), stride-1 2D convolution over a
// channel-major (C, H, W) input. The parameter block holds the filter bank
// as a Filters × (InC·K·K) row-major matrix followed by Filters biases.
//
// The convolution runs as an implicit GEMM: each output (f, oy, x) is
// computed for every x < InW, not only the OutW valid ones, so that row
// (c, dy, dx) of the im2col lowering is one run of the input — the
// (OutH−1)·InW + OutW floats from c·H·W + dy·W + dx — and the filter bank
// multiplies those runs where they lie (tensor.MatMulRuns). Each output is
// the same FMA chain the lowered GEMM computes, so the forward pass is
// bit-identical to it; no lowering is ever materialised.
//
// The layer hands that computation on as it is: its output is
// (Filters, OutH, InW), rows InW apart, and the columns x ≥ OutW of every
// row hold values no valid output depends on. The layer reading it must
// know that row stride and must return zero gradient in those columns: its
// max-pool, built by Pool, does both, and NewNetwork accepts no other
// consumer.
type Conv2D struct {
	InC, InH, InW int
	Filters, K    int
}

// NewConv2D returns a valid-convolution layer; follow it with its Pool. It
// panics if the kernel does not fit the input.
func NewConv2D(inC, inH, inW, filters, k int) *Conv2D {
	if inC <= 0 || filters <= 0 || k <= 0 || inH < k || inW < k {
		panic("nn: invalid Conv2D geometry")
	}
	return &Conv2D{InC: inC, InH: inH, InW: inW, Filters: filters, K: k}
}

// Pool returns the size×size max-pool over c's output, reading its rows
// InW apart.
func (c *Conv2D) Pool(size int) *MaxPool2D {
	p := NewMaxPool2D(c.Filters, c.OutH(), c.OutW(), size)
	p.RowStride = c.InW
	return p
}

// OutH returns the output feature-map height.
func (c *Conv2D) OutH() int { return c.InH - c.K + 1 }

// OutW returns the output feature-map width (valid columns).
func (c *Conv2D) OutW() int { return c.InW - c.K + 1 }

// plane is one filter's output, OutH rows at the input's row width; run is
// the length of its prefix the kernels write, the length of every lowering
// row.
func (c *Conv2D) plane() int { return c.OutH() * c.InW }
func (c *Conv2D) run() int   { return (c.OutH()-1)*c.InW + c.OutW() }

func (c *Conv2D) InDim() int  { return c.InC * c.InH * c.InW }
func (c *Conv2D) OutDim() int { return c.Filters * c.plane() }
func (c *Conv2D) ParamCount() int {
	return c.Filters*c.InC*c.K*c.K + c.Filters
}
func (c *Conv2D) Name() string {
	return fmt.Sprintf("Conv2D(%dx%dx%d,k=%d,f=%d)", c.InC, c.InH, c.InW, c.K, c.Filters)
}

func (c *Conv2D) filterMat(params []float64) tensor.Mat {
	n := c.Filters * c.InC * c.K * c.K
	return tensor.MatFrom(c.Filters, c.InC*c.K*c.K, params[:n])
}

func (c *Conv2D) biases(params []float64) []float64 {
	return params[c.Filters*c.InC*c.K*c.K:]
}

// convScratch is one worker's convolution state. Every pass works one image
// at a time, so the per-example and the batched kernels share it and its
// size does not depend on the batch.
type convScratch struct {
	off  []int     // the lowering's runs: row (c, dy, dx) starts at c·H·W + dy·W + dx
	ones []float64 // run() ones: the bias add is AxpyTo(row, row, b_f, ones)
	// dCols is one image's Wᵀ·dOut (InC·K·K × plane), allocated by the first
	// backward pass that needs dIn: forward-only workspaces and a network's
	// first layer never hold it.
	dCols tensor.Mat
}

func (c *Conv2D) NewScratch() any {
	s := &convScratch{ones: make([]float64, c.run())}
	for ch := 0; ch < c.InC; ch++ {
		for dy := 0; dy < c.K; dy++ {
			for dx := 0; dx < c.K; dx++ {
				s.off = append(s.off, ch*c.InH*c.InW+dy*c.InW+dx)
			}
		}
	}
	tensor.Fill(s.ones, 1)
	return s
}

// NewBatchScratch is NewScratch: the batched passes loop over images.
func (c *Conv2D) NewBatchScratch(int) any { return c.NewScratch() }

// Forward computes out = filters ⊛ in + bias for one image.
func (c *Conv2D) Forward(params, in, out []float64, scratch any) {
	c.forward(params, in, out, scratch.(*convScratch))
}

// ForwardBatch runs Forward on every row.
func (c *Conv2D) ForwardBatch(params []float64, in, out tensor.Mat, scratch any) {
	s := scratch.(*convScratch)
	for b := 0; b < in.Rows; b++ {
		c.forward(params, in.Row(b), out.Row(b), s)
	}
}

// forward is one image's implicit GEMM — one offset-table tile per (column
// panel, filter group) — then the bias, v + b_f exactly, as one AxpyTo per
// filter row.
func (c *Conv2D) forward(params, in, out []float64, s *convScratch) {
	plane, n := c.plane(), c.run()
	tensor.MatMulRuns(tensor.MatFrom(c.Filters, plane, out), n, c.filterMat(params), in, s.off)
	for f, bf := range c.biases(params) {
		row := out[f*plane : f*plane+n]
		tensor.AxpyTo(row, row, bf, s.ones)
	}
}

// Backward accumulates dW += dOut·runsᵀ and db += row sums of dOut, and
// back-propagates dIn.
func (c *Conv2D) Backward(params, grad, in, _, dOut, dIn []float64, scratch any) {
	gb := c.biases(grad)
	p := len(dOut) / c.Filters
	for f := range gb {
		gb[f] += tensor.Sum(dOut[f*p : (f+1)*p])
	}
	c.backward(params, grad, in, dOut, dIn, scratch.(*convScratch))
}

// BackwardBatch overwrites the layer's gradient block with the batch's:
// db as one chain per filter over every row (planeSums), dW summed image by
// image from zero, and dIn row by row.
func (c *Conv2D) BackwardBatch(params, grad []float64, in, _, dOut, dIn tensor.Mat, scratch any) {
	s := scratch.(*convScratch)
	planeSums(c.biases(grad), dOut)
	clear(c.filterMat(grad).Data)
	for b := 0; b < dOut.Rows; b++ {
		var di []float64
		if dIn.Data != nil {
			di = dIn.Row(b)
		}
		c.backward(params, grad, in.Row(b), dOut.Row(b), di, s)
	}
}

// backward is one image's filter gradient — dot tiles of dOut's filter rows
// against the input runs, added to grad — and, when dIn is wanted, its input
// gradient: dCols = Wᵀ·dOut, then one Axpy of each dCols row into the input
// run it came from, in the lowering's row order (the col2im of the lowered
// GEMM, element for element). dOut's columns past OutW must be zero.
func (c *Conv2D) backward(params, grad, in, dOut, dIn []float64, s *convScratch) {
	n := c.run()
	dO := tensor.MatFrom(c.Filters, c.plane(), dOut)
	tensor.MatMulABTRunsAdd(c.filterMat(grad), dO, n, in, s.off)
	if dIn == nil {
		return
	}
	if s.dCols.Data == nil {
		s.dCols = tensor.NewMat(len(s.off), c.plane())
	}
	tensor.MatMulATB(s.dCols, c.filterMat(params), dO)
	clear(dIn)
	for q, o := range s.off {
		tensor.Axpy(1, s.dCols.Row(q)[:n], dIn[o:o+n])
	}
}

// planeSums sets sums[f] to the sum of plane f over every row of m, each row
// holding len(sums) equal planes (a conv layer's output filters): one
// left-to-right chain of adds from zero per plane, row after row — bit for
// bit tensor.Sum over the planes laid end to end. Four chains run side by
// side to keep the adder busy where a single chain waits on the latency of
// its previous add.
func planeSums(sums []float64, m tensor.Mat) {
	p := m.Cols / len(sums)
	f := 0
	for ; f+4 <= len(sums); f += 4 {
		var s0, s1, s2, s3 float64
		for b := 0; b < m.Rows; b++ {
			r := m.Row(b)[f*p : (f+4)*p]
			r0, r1, r2, r3 := r[:p], r[p:2*p], r[2*p:3*p], r[3*p:4*p]
			for j, v := range r0 {
				s0 += v
				s1 += r1[j]
				s2 += r2[j]
				s3 += r3[j]
			}
		}
		sums[f], sums[f+1], sums[f+2], sums[f+3] = s0, s1, s2, s3
	}
	for ; f < len(sums); f++ {
		var s float64
		for b := 0; b < m.Rows; b++ {
			for _, v := range m.Row(b)[f*p : (f+1)*p] {
				s += v
			}
		}
		sums[f] = s
	}
}

// MaxPool2D downsamples each channel of a (C, H, W) input with a
// non-overlapping Size×Size max window (floor division on the borders, as in
// the paper's CNN where an 11×11 map pools to 5×5). It owns no parameters.
// The winner of a window is its first maximal input in row-major order, and a
// window holding a NaN pools to NaN.
//
// The input's rows are RowStride ≥ InW apart, so a channel is InH·RowStride
// values of which each row's first InW are pooled: a Conv2D's output is
// read where it lies (Conv2D.Pool). The backward pass writes zero gradient
// into the columns it does not read.
type MaxPool2D struct {
	C, InH, InW, Size int
	RowStride         int
}

// NewMaxPool2D returns the pooling layer over a compact input (RowStride =
// InW).
func NewMaxPool2D(c, inH, inW, size int) *MaxPool2D {
	if c <= 0 || size <= 0 || inH < size || inW < size {
		panic("nn: invalid MaxPool2D geometry")
	}
	return &MaxPool2D{C: c, InH: inH, InW: inW, Size: size, RowStride: inW}
}

// OutH returns the pooled height.
func (p *MaxPool2D) OutH() int { return p.InH / p.Size }

// OutW returns the pooled width.
func (p *MaxPool2D) OutW() int { return p.InW / p.Size }

func (p *MaxPool2D) InDim() int      { return p.C * p.InH * p.RowStride }
func (p *MaxPool2D) OutDim() int     { return p.C * p.OutH() * p.OutW() }
func (p *MaxPool2D) ParamCount() int { return 0 }
func (p *MaxPool2D) Name() string {
	return fmt.Sprintf("MaxPool(%dx%dx%d,%d)", p.C, p.InH, p.InW, p.Size)
}

// poolScratch records, per output element, which input index won the max —
// needed to route the gradient in Backward.
type poolScratch struct {
	argmax []int
}

func (p *MaxPool2D) NewScratch() any {
	return &poolScratch{argmax: make([]int, p.OutDim())}
}

func (p *MaxPool2D) Forward(_, in, out []float64, scratch any) {
	p.pool(in, out, scratch.(*poolScratch).argmax, p.C)
}

// pool pools `planes` consecutive InH×RowStride planes of in — one
// example's C channels, or a whole contiguous minibatch's — recording each
// output's winner as an index into in.
func (p *MaxPool2D) pool(in, out []float64, argmax []int, planes int) {
	if p.Size == 2 {
		pool2x2(in, out, argmax, planes, p.InH, p.InW, p.RowStride)
		return
	}
	h, w, rs, k := p.InH, p.InW, p.RowStride, p.Size
	oi := 0
	for pl := 0; pl < planes; pl++ {
		base := pl * h * rs
		for oy := 0; oy < h/k; oy++ {
			for ox := 0; ox < w/k; ox++ {
				bestIdx := base + oy*k*rs + ox*k
				best := in[bestIdx]
				for dy := 0; dy < k; dy++ {
					rowBase := base + (oy*k+dy)*rs + ox*k
					for dx := 0; dx < k; dx++ {
						// A NaN replaces a number but never another NaN.
						if v := in[rowBase+dx]; v > best || (v != v && best == best) {
							best, bestIdx = v, rowBase+dx
						}
					}
				}
				out[oi] = best
				argmax[oi] = bestIdx
				oi++
			}
		}
	}
}

// pool2x2 is pool for the 2×2 windows the paper's architectures use. The
// value comes from the NaN-propagating max builtin and the winner from three
// compares into conditional moves: no data-dependent branch, where a
// compare-and-branch tournament mispredicts on about every other window. The
// winner is the tournament's, the first maximal input of (0,0), (0,1),
// (1,0), (1,1): a strict > keeps the earlier input of each pair on a tie.
// Rows are rs apart.
func pool2x2(in, out []float64, argmax []int, planes, h, w, rs int) {
	outW := w / 2
	oi := 0
	for pl := 0; pl < planes; pl++ {
		for oy := 0; oy < h/2; oy++ {
			i0 := pl*h*rs + oy*2*rs
			r0 := in[i0 : i0+2*outW]
			r1 := in[i0+rs : i0+rs+2*outW]
			o := out[oi : oi+outW]
			a := argmax[oi : oi+outW]
			for ox := range o {
				v0, v1, v2, v3 := r0[2*ox], r0[2*ox+1], r1[2*ox], r1[2*ox+1]
				m01, m23 := max(v0, v1), max(v2, v3)
				d01 := 0
				if v1 > v0 {
					d01 = 1
				}
				d23 := rs
				if v3 > v2 {
					d23 = rs + 1
				}
				if m23 > m01 {
					d01 = d23
				}
				o[ox] = max(m01, m23)
				a[ox] = i0 + 2*ox + d01
			}
			oi += outW
		}
	}
}

func (p *MaxPool2D) Backward(_, _, _, _, dOut, dIn []float64, scratch any) {
	if dIn == nil {
		return
	}
	route(dOut, dIn, scratch.(*poolScratch).argmax)
}

// route sends each output's gradient to its recorded winner.
func route(dOut, dIn []float64, argmax []int) {
	tensor.Fill(dIn, 0)
	for oi, ii := range argmax[:len(dOut)] {
		dIn[ii] += dOut[oi]
	}
}

// NewBatchScratch records max winners for the whole minibatch
// (batch × OutDim).
func (p *MaxPool2D) NewBatchScratch(batch int) any {
	return &poolScratch{argmax: make([]int, batch*p.OutDim())}
}

// ForwardBatch pools the minibatch as one run of batch·C planes: the rows of
// a Mat are contiguous, so the winners index the whole batch's input.
func (p *MaxPool2D) ForwardBatch(_ []float64, in, out tensor.Mat, scratch any) {
	p.pool(in.Data, out.Data, scratch.(*poolScratch).argmax, in.Rows*p.C)
}

func (p *MaxPool2D) BackwardBatch(_, _ []float64, _, _, dOut, dIn tensor.Mat, scratch any) {
	if dIn.Data == nil {
		return
	}
	route(dOut.Data, dIn.Data, scratch.(*poolScratch).argmax)
}
