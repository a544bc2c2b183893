package nn

import (
	"fmt"

	"leashedsgd/internal/tensor"
)

// Conv2D is a valid (no padding), stride-1 2D convolution over a
// channel-major (C, H, W) input. The parameter block holds the filter bank
// as a Filters × (InC·K·K) row-major matrix followed by Filters biases —
// exactly the layout that lets forward/backward run as GEMMs over an im2col
// lowering. Output shape is (Filters, H−K+1, W−K+1).
type Conv2D struct {
	InC, InH, InW int
	Filters, K    int
}

// NewConv2D returns a valid-convolution layer. It panics if the kernel does
// not fit the input.
func NewConv2D(inC, inH, inW, filters, k int) *Conv2D {
	if inC <= 0 || filters <= 0 || k <= 0 || inH < k || inW < k {
		panic("nn: invalid Conv2D geometry")
	}
	return &Conv2D{InC: inC, InH: inH, InW: inW, Filters: filters, K: k}
}

// OutH returns the output feature-map height.
func (c *Conv2D) OutH() int { return c.InH - c.K + 1 }

// OutW returns the output feature-map width.
func (c *Conv2D) OutW() int { return c.InW - c.K + 1 }

func (c *Conv2D) InDim() int  { return c.InC * c.InH * c.InW }
func (c *Conv2D) OutDim() int { return c.Filters * c.OutH() * c.OutW() }
func (c *Conv2D) ParamCount() int {
	return c.Filters*c.InC*c.K*c.K + c.Filters
}
func (c *Conv2D) Name() string {
	return fmt.Sprintf("Conv2D(%dx%dx%d,k=%d,f=%d)", c.InC, c.InH, c.InW, c.K, c.Filters)
}

// convScratch holds the im2col lowering and its gradient counterpart.
type convScratch struct {
	cols  tensor.Mat // (InC·K·K) × (OutH·OutW)
	dCols tensor.Mat
}

func (c *Conv2D) NewScratch() any {
	rows := c.InC * c.K * c.K
	cols := c.OutH() * c.OutW()
	return &convScratch{cols: tensor.NewMat(rows, cols), dCols: tensor.NewMat(rows, cols)}
}

func (c *Conv2D) filterMat(params []float64) tensor.Mat {
	n := c.Filters * c.InC * c.K * c.K
	return tensor.MatFrom(c.Filters, c.InC*c.K*c.K, params[:n])
}

func (c *Conv2D) biases(params []float64) []float64 {
	return params[c.Filters*c.InC*c.K*c.K:]
}

// Forward lowers the input with im2col then computes
// out = filters · cols + bias (bias broadcast per filter row).
func (c *Conv2D) Forward(params, in, out []float64, scratch any) {
	s := scratch.(*convScratch)
	tensor.Im2Col(s.cols, in, c.InC, c.InH, c.InW, c.K)
	w := c.filterMat(params)
	outMat := tensor.MatFrom(c.Filters, c.OutH()*c.OutW(), out)
	tensor.MatMul(outMat, w, s.cols)
	b := c.biases(params)
	for f := 0; f < c.Filters; f++ {
		row := outMat.Row(f)
		bias := b[f]
		for i := range row {
			row[i] += bias
		}
	}
}

// Backward accumulates dW += dOut·colsᵀ, db += row-sums of dOut, and
// back-propagates dIn = col2im(Wᵀ·dOut).
func (c *Conv2D) Backward(params, grad, _, _, dOut, dIn []float64, scratch any) {
	s := scratch.(*convScratch)
	dOutMat := tensor.MatFrom(c.Filters, c.OutH()*c.OutW(), dOut)
	gw := c.filterMat(grad)
	// dW += dOut · colsᵀ, computed row by row as rank-accumulations so we
	// never materialize colsᵀ.
	for f := 0; f < c.Filters; f++ {
		dRow := dOutMat.Row(f)
		gRow := gw.Row(f)
		for j := 0; j < s.cols.Rows; j++ {
			gRow[j] += tensor.Dot(s.cols.Row(j), dRow)
		}
	}
	gb := c.biases(grad)
	for f := 0; f < c.Filters; f++ {
		gb[f] += tensor.Sum(dOutMat.Row(f))
	}
	if dIn != nil {
		w := c.filterMat(params)
		// dCols = Wᵀ · dOut: row j of dCols is Σ_f W[f,j]·dOut[f,:].
		s.dCols.Zero()
		for f := 0; f < c.Filters; f++ {
			wRow := w.Row(f)
			dRow := dOutMat.Row(f)
			for j := 0; j < s.dCols.Rows; j++ {
				if wRow[j] != 0 {
					tensor.Axpy(wRow[j], dRow, s.dCols.Row(j))
				}
			}
		}
		tensor.Fill(dIn, 0)
		tensor.Col2ImAdd(dIn, s.dCols, c.InC, c.InH, c.InW, c.K)
	}
}

// convBatchScratch holds the batched lowering: every example's im2col panel
// stacked side by side into ONE wide (InC·K·K) × (batch·outPixels) matrix,
// so forward and backward each run a single GEMM for the entire batch
// instead of per-example loops. The GEMM staging is filter-major
// (Filters × batch·outPixels): each staging row maps to the layer's output
// layout by plain contiguous stripe copies, and the orientations line up
// with the fast kernel shapes — forward reduces over the receptive field
// (W · cols), the weight gradient reduces over the long batch·outPixels
// dimension (dOutT · colsᵀ).
type convBatchScratch struct {
	cols  tensor.Mat // (InC·K·K) × (batch·outH·outW) stacked im2col lowering
	dCols tensor.Mat // gradient counterpart; allocated by the first backward pass that needs dIn
	tmpT  tensor.Mat // Filters × (batch·outH·outW): forward out / backward dOut staging
}

func (c *Conv2D) NewBatchScratch(batch int) any {
	ohw := c.OutH() * c.OutW()
	ckk := c.InC * c.K * c.K
	return &convBatchScratch{
		cols: tensor.NewMat(ckk, batch*ohw),
		tmpT: tensor.NewMat(c.Filters, batch*ohw),
	}
}

// ForwardBatch lowers every example with im2col into one stacked wide
// matrix, computes tmpT = filters·cols as a single GEMM, and copies each
// filter row's contiguous per-example stripes into the output rows, fusing
// the bias add.
func (c *Conv2D) ForwardBatch(params []float64, in, out tensor.Mat, scratch any) {
	s := scratch.(*convBatchScratch)
	B := in.Rows
	ohw := c.OutH() * c.OutW()
	ckk := c.InC * c.K * c.K
	F := c.Filters
	cols := tensor.MatFrom(ckk, B*ohw, s.cols.Data[:ckk*B*ohw])
	for b := 0; b < B; b++ {
		tensor.Im2ColInto(cols, b*ohw, in.Row(b), c.InC, c.InH, c.InW, c.K)
	}
	tmpT := tensor.MatFrom(F, B*ohw, s.tmpT.Data[:F*B*ohw])
	tensor.MatMul(tmpT, c.filterMat(params), cols)
	bias := c.biases(params)
	for b := 0; b < B; b++ {
		outRow := out.Row(b)
		for f := 0; f < F; f++ {
			bf := bias[f]
			src := tmpT.Row(f)[b*ohw : (b+1)*ohw]
			dst := outRow[f*ohw : (f+1)*ohw]
			for p, v := range src {
				dst[p] = v + bf
			}
		}
	}
}

// BackwardBatch gathers dOut into the filter-major staging (contiguous
// stripe copies), then runs one GEMM per gradient: dW = dOutT·colsᵀ
// (reduction over the whole batch·outPixels dimension), db = row sums —
// both overwriting the layer's gradient block — and dCols = Wᵀ·dOutT
// scattered back per example with Col2ImAddFrom.
func (c *Conv2D) BackwardBatch(params, grad []float64, _, _, dOut, dIn tensor.Mat, scratch any) {
	s := scratch.(*convBatchScratch)
	B := dOut.Rows
	ohw := c.OutH() * c.OutW()
	ckk := c.InC * c.K * c.K
	F := c.Filters
	cols := tensor.MatFrom(ckk, B*ohw, s.cols.Data[:ckk*B*ohw])
	dOutT := tensor.MatFrom(F, B*ohw, s.tmpT.Data[:F*B*ohw])
	for b := 0; b < B; b++ {
		dRow := dOut.Row(b)
		for f := 0; f < F; f++ {
			copy(dOutT.Row(f)[b*ohw:(b+1)*ohw], dRow[f*ohw:(f+1)*ohw])
		}
	}
	tensor.MatMulABT(c.filterMat(grad), dOutT, cols)
	rowSums(c.biases(grad), dOutT)
	if dIn.Data == nil {
		return
	}
	if s.dCols.Data == nil {
		// Forward-only workspaces and a network's first layer never get
		// here, and so never hold the second im2col-sized panel.
		s.dCols = tensor.NewMat(s.cols.Rows, s.cols.Cols)
	}
	dCols := tensor.MatFrom(ckk, B*ohw, s.dCols.Data[:ckk*B*ohw])
	tensor.MatMulATB(dCols, c.filterMat(params), dOutT)
	dIn.Zero()
	for b := 0; b < B; b++ {
		tensor.Col2ImAddFrom(dIn.Row(b), dCols, b*ohw, c.InC, c.InH, c.InW, c.K)
	}
}

// rowSums sets sums[f] to tensor.Sum(m.Row(f)) for every row of m. Four rows
// are summed side by side: each sum is still one left-to-right chain of adds
// from zero, bit for bit Sum's, but four independent chains keep the adder
// busy where a single chain waits on the latency of its previous add.
func rowSums(sums []float64, m tensor.Mat) {
	f := 0
	for ; f+4 <= m.Rows; f += 4 {
		r0, r1, r2, r3 := m.Row(f), m.Row(f+1), m.Row(f+2), m.Row(f+3)
		r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
		var s0, s1, s2, s3 float64
		for j, v := range r0 {
			s0 += v
			s1 += r1[j]
			s2 += r2[j]
			s3 += r3[j]
		}
		sums[f], sums[f+1], sums[f+2], sums[f+3] = s0, s1, s2, s3
	}
	for ; f < m.Rows; f++ {
		sums[f] = tensor.Sum(m.Row(f))
	}
}

// MaxPool2D downsamples each channel of a (C, H, W) input with a
// non-overlapping Size×Size max window (floor division on the borders, as in
// the paper's CNN where an 11×11 map pools to 5×5). It owns no parameters.
// The winner of a window is its first maximal input in row-major order, and a
// window holding a NaN pools to NaN.
type MaxPool2D struct {
	C, InH, InW, Size int
}

// NewMaxPool2D returns the pooling layer.
func NewMaxPool2D(c, inH, inW, size int) *MaxPool2D {
	if c <= 0 || size <= 0 || inH < size || inW < size {
		panic("nn: invalid MaxPool2D geometry")
	}
	return &MaxPool2D{C: c, InH: inH, InW: inW, Size: size}
}

// OutH returns the pooled height.
func (p *MaxPool2D) OutH() int { return p.InH / p.Size }

// OutW returns the pooled width.
func (p *MaxPool2D) OutW() int { return p.InW / p.Size }

func (p *MaxPool2D) InDim() int      { return p.C * p.InH * p.InW }
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

// pool pools `planes` consecutive InH×InW planes of in — one example's C
// channels, or a whole contiguous minibatch's — recording each output's
// winner as an index into in.
func (p *MaxPool2D) pool(in, out []float64, argmax []int, planes int) {
	if p.Size == 2 {
		pool2x2(in, out, argmax, planes, p.InH, p.InW)
		return
	}
	h, w, k := p.InH, p.InW, p.Size
	oi := 0
	for pl := 0; pl < planes; pl++ {
		base := pl * h * w
		for oy := 0; oy < h/k; oy++ {
			for ox := 0; ox < w/k; ox++ {
				bestIdx := base + oy*k*w + ox*k
				best := in[bestIdx]
				for dy := 0; dy < k; dy++ {
					rowBase := base + (oy*k+dy)*w + ox*k
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
func pool2x2(in, out []float64, argmax []int, planes, h, w int) {
	outW := w / 2
	oi := 0
	for pl := 0; pl < planes; pl++ {
		for oy := 0; oy < h/2; oy++ {
			i0 := pl*h*w + oy*2*w
			r0 := in[i0 : i0+2*outW]
			r1 := in[i0+w : i0+w+2*outW]
			o := out[oi : oi+outW]
			a := argmax[oi : oi+outW]
			for ox := range o {
				v0, v1, v2, v3 := r0[2*ox], r0[2*ox+1], r1[2*ox], r1[2*ox+1]
				m01, m23 := max(v0, v1), max(v2, v3)
				d01 := 0
				if v1 > v0 {
					d01 = 1
				}
				d23 := w
				if v3 > v2 {
					d23 = w + 1
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
