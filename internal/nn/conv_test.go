package nn

import (
	"fmt"
	"math"
	"testing"

	"leashedsgd/internal/data"
	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/rng"
	"leashedsgd/internal/tensor"
)

// loweredConv is the explicit-lowering convolution Conv2D replaced, kept as
// the reference: compact output; per example Im2Col, one GEMM, a bias loop,
// and a backward of row dots, Axpy columns and col2ImAdd; batched, every
// example's lowering stacked into one wide panel, one GEMM per direction
// over a filter-major staging copy, and col2im per example.
type loweredConv struct{ *Conv2D }

type loweredScratch struct {
	cols, dCols, tmpT tensor.Mat
}

func (c loweredConv) OutDim() int { return c.Filters * c.OutH() * c.OutW() }

func (c loweredConv) ckk() int { return c.InC * c.K * c.K }

func (c loweredConv) NewScratch() any { return c.NewBatchScratch(1) }

func (c loweredConv) NewBatchScratch(batch int) any {
	ohw := c.OutH() * c.OutW()
	return &loweredScratch{
		cols:  tensor.NewMat(c.ckk(), batch*ohw),
		dCols: tensor.NewMat(c.ckk(), batch*ohw),
		tmpT:  tensor.NewMat(c.Filters, batch*ohw),
	}
}

func (c loweredConv) Forward(params, in, out []float64, scratch any) {
	s := scratch.(*loweredScratch)
	ohw := c.OutH() * c.OutW()
	cols := tensor.MatFrom(c.ckk(), ohw, s.cols.Data[:c.ckk()*ohw])
	tensor.Im2Col(cols, in, c.InC, c.InH, c.InW, c.K)
	outMat := tensor.MatFrom(c.Filters, ohw, out)
	tensor.MatMul(outMat, c.filterMat(params), cols)
	for f, bias := range c.biases(params) {
		row := outMat.Row(f)
		for i := range row {
			row[i] += bias
		}
	}
}

func (c loweredConv) Backward(params, grad, _, _, dOut, dIn []float64, scratch any) {
	s := scratch.(*loweredScratch)
	ohw := c.OutH() * c.OutW()
	cols := tensor.MatFrom(c.ckk(), ohw, s.cols.Data[:c.ckk()*ohw])
	dOutMat := tensor.MatFrom(c.Filters, ohw, dOut)
	gw := c.filterMat(grad)
	for f := 0; f < c.Filters; f++ {
		for j := 0; j < cols.Rows; j++ {
			gw.Row(f)[j] += tensor.Dot(cols.Row(j), dOutMat.Row(f))
		}
	}
	gb := c.biases(grad)
	for f := range gb {
		gb[f] += tensor.Sum(dOutMat.Row(f))
	}
	if dIn == nil {
		return
	}
	dCols := tensor.MatFrom(c.ckk(), ohw, s.dCols.Data[:c.ckk()*ohw])
	dCols.Zero()
	w := c.filterMat(params)
	for f := 0; f < c.Filters; f++ {
		for j := 0; j < dCols.Rows; j++ {
			if wj := w.Row(f)[j]; wj != 0 {
				tensor.Axpy(wj, dOutMat.Row(f), dCols.Row(j))
			}
		}
	}
	clear(dIn)
	col2ImAdd(dIn, dCols, c.InC, c.InH, c.InW, c.K)
}

func (c loweredConv) ForwardBatch(params []float64, in, out tensor.Mat, scratch any) {
	s := scratch.(*loweredScratch)
	B, ohw, F := in.Rows, c.OutH()*c.OutW(), c.Filters
	cols := tensor.MatFrom(c.ckk(), B*ohw, s.cols.Data[:c.ckk()*B*ohw])
	for b := 0; b < B; b++ {
		tensor.Im2ColInto(cols, b*ohw, in.Row(b), c.InC, c.InH, c.InW, c.K)
	}
	tmpT := tensor.MatFrom(F, B*ohw, s.tmpT.Data[:F*B*ohw])
	tensor.MatMul(tmpT, c.filterMat(params), cols)
	bias := c.biases(params)
	for b := 0; b < B; b++ {
		for f := 0; f < F; f++ {
			dst := out.Row(b)[f*ohw : (f+1)*ohw]
			for p, v := range tmpT.Row(f)[b*ohw : (b+1)*ohw] {
				dst[p] = v + bias[f]
			}
		}
	}
}

func (c loweredConv) BackwardBatch(params, grad []float64, _, _, dOut, dIn tensor.Mat, scratch any) {
	s := scratch.(*loweredScratch)
	B, ohw, F := dOut.Rows, c.OutH()*c.OutW(), c.Filters
	cols := tensor.MatFrom(c.ckk(), B*ohw, s.cols.Data[:c.ckk()*B*ohw])
	dOutT := tensor.MatFrom(F, B*ohw, s.tmpT.Data[:F*B*ohw])
	for b := 0; b < B; b++ {
		for f := 0; f < F; f++ {
			copy(dOutT.Row(f)[b*ohw:(b+1)*ohw], dOut.Row(b)[f*ohw:(f+1)*ohw])
		}
	}
	tensor.MatMulABT(c.filterMat(grad), dOutT, cols)
	gb := c.biases(grad)
	for f := range gb {
		gb[f] = tensor.Sum(dOutT.Row(f))
	}
	if dIn.Data == nil {
		return
	}
	dCols := tensor.MatFrom(c.ckk(), B*ohw, s.dCols.Data[:c.ckk()*B*ohw])
	tensor.MatMulATB(dCols, c.filterMat(params), dOutT)
	dIn.Zero()
	for b := 0; b < B; b++ {
		col2ImAddFrom(dIn.Row(b), dCols, b*ohw, c.InC, c.InH, c.InW, c.K)
	}
}

// loweredCNN rebuilds a CNN with every Conv2D as the lowered reference and
// every pool reading compact rows; θ's layout is the same.
func loweredCNN(t *testing.T, n *Network) *Network {
	t.Helper()
	var layers []Layer
	for _, l := range n.layers {
		switch l := l.(type) {
		case *Conv2D:
			layers = append(layers, loweredConv{NewConv2D(l.InC, l.InH, l.InW, l.Filters, l.K)})
		case *MaxPool2D:
			layers = append(layers, NewMaxPool2D(l.C, l.InH, l.InW, l.Size))
		default:
			layers = append(layers, l)
		}
	}
	return MustNetwork(layers...)
}

// filterTol is the stated bound on a convolution's filter gradient, the one
// value whose summation order the implicit GEMM changes: each entry within
// filterTol of the reference, relative to the largest entry of its layer.
// The measured differences are below 1e-15 of that entry, on both kernel
// tiers and the portable kernels.
const filterTol = 1e-13

// filterEntries reports which θ indices are Conv2D filter weights, and the
// layer each belongs to.
func filterEntries(n *Network) []int {
	layer := make([]int, n.ParamCount())
	for i := range layer {
		layer[i] = -1
	}
	for li, l := range n.layers {
		if c, ok := l.(*Conv2D); ok {
			for j := 0; j < c.Filters*c.InC*c.K*c.K; j++ {
				layer[n.offsets[li]+j] = li
			}
		}
	}
	return layer
}

// checkCNNGrad compares a gradient with its reference: bit for bit
// everywhere but the filter weights, which must be within filterTol of their
// layer's largest entry.
func checkCNNGrad(t *testing.T, n *Network, got, want []float64) {
	t.Helper()
	layer := filterEntries(n)
	scale := map[int]float64{}
	for i, li := range layer {
		if li >= 0 {
			scale[li] = math.Max(scale[li], math.Abs(want[i]))
		}
	}
	for i, li := range layer {
		if li < 0 {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("grad[%d] = %v, lowered reference %v", i, got[i], want[i])
			}
		} else if d := math.Abs(got[i] - want[i]); !(d <= filterTol*scale[li]) {
			t.Fatalf("filter grad[%d] = %v, lowered reference %v (layer scale %v)", i, got[i], want[i], scale[li])
		}
	}
}

// TestCNNMatchesLoweredReference pins the implicit-GEMM CNNs to the
// explicit-lowering ones on the same θ: the batched loss, Evaluate and a
// one-row Forward are bit-identical; the b = 32 gradient is bit-identical
// except the conv filter weights (filterTol), so every conv's input and bias
// gradient is too; and over 20 SGD steps θ stays within filterTol of the
// reference's, relative to its largest entry.
func TestCNNMatchesLoweredReference(t *testing.T) {
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(256, 3))
	for name, n := range map[string]*Network{"PaperCNN": NewPaperCNN(), "SmallCNN": NewSmallCNN()} {
		t.Run(name, func(t *testing.T) {
			ref := loweredCNN(t, n)
			if ref.ParamCount() != n.ParamCount() || ref.Arch() != n.Arch() {
				t.Fatalf("reference %s, network %s", ref.Arch(), n.Arch())
			}
			theta := initParams(n, 11)
			ws, wsRef := n.NewWorkspace(), ref.NewWorkspace()
			loss, acc := n.Evaluate(theta, ds, nil, ws)
			lossRef, accRef := ref.Evaluate(theta, ds, nil, wsRef)
			if math.Float64bits(loss) != math.Float64bits(lossRef) || acc != accRef {
				t.Fatalf("Evaluate = (%v, %v), lowered reference (%v, %v)", loss, acc, lossRef, accRef)
			}
			for _, row := range []int{0, 7} {
				z := append([]float64(nil), n.Forward(theta, ds.X[row], ws)...)
				if i := sameBits(z, ref.Forward(theta, ds.X[row], wsRef)); i >= 0 {
					t.Fatalf("row %d: one-row forward differs at logit %d", row, i)
				}
			}

			thetaRef := append([]float64(nil), theta...)
			grad, gradRef := make([]float64, n.ParamCount()), make([]float64, n.ParamCount())
			sampler := data.NewSampler(ds.Len(), 32, 5, 0)
			for step := 0; step < 20; step++ {
				batch := sampler.Next()
				if step == 0 {
					loss := n.BatchLossGrad(paramvec.FlatView(theta), grad, ds, batch, ws)
					lossRef := ref.BatchLossGrad(paramvec.FlatView(theta), gradRef, ds, batch, wsRef)
					if math.Float64bits(loss) != math.Float64bits(lossRef) {
						t.Fatalf("loss %v, lowered reference %v", loss, lossRef)
					}
					checkCNNGrad(t, n, grad, gradRef)
				} else {
					n.BatchLossGrad(paramvec.FlatView(theta), grad, ds, batch, ws)
					ref.BatchLossGrad(paramvec.FlatView(thetaRef), gradRef, ds, batch, wsRef)
				}
				tensor.Axpy(-0.5, grad, theta)
				tensor.Axpy(-0.5, gradRef, thetaRef)
			}
			scale := tensor.MaxAbs(thetaRef)
			for i := range theta {
				if d := math.Abs(theta[i] - thetaRef[i]); !(d <= filterTol*scale) {
					t.Fatalf("after 20 steps θ[%d] = %v, lowered reference %v", i, theta[i], thetaRef[i])
				}
			}
		})
	}
}

// TestConv2DMatchesLowering checks one layer against the lowered reference
// on geometries beyond the paper's (more filters than a tile has rows,
// odd and non-square maps, 1×1 and full-size kernels), batched and per
// example: the output's valid columns, the input gradient and the bias
// gradient bit for bit, the filter gradient to filterTol. dOut carries zeros
// past OutW, as the layer's pool returns it.
func TestConv2DMatchesLowering(t *testing.T) {
	const B = 3
	r := rng.New(17)
	randVec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		return v
	}
	for _, g := range [][5]int{{1, 28, 28, 4, 3}, {4, 13, 13, 8, 3}, {3, 7, 5, 9, 2}, {2, 6, 9, 17, 1}, {2, 4, 4, 3, 4}} {
		c := NewConv2D(g[0], g[1], g[2], g[3], g[4])
		ref := loweredConv{NewConv2D(g[0], g[1], g[2], g[3], g[4])}
		t.Run(c.Name(), func(t *testing.T) {
			params := randVec(c.ParamCount())
			in := tensor.MatFrom(B, c.InDim(), randVec(B*c.InDim()))
			dOutRef := tensor.MatFrom(B, ref.OutDim(), randVec(B*ref.OutDim()))
			// dOut in c's layout, and the map from c's outputs to the reference's.
			dOut := tensor.NewMat(B, c.OutDim())
			at := make([]int, ref.OutDim())
			for f := 0; f < c.Filters; f++ {
				for y := 0; y < c.OutH(); y++ {
					for x := 0; x < c.OutW(); x++ {
						at[(f*c.OutH()+y)*c.OutW()+x] = (f*c.OutH()+y)*c.InW + x
					}
				}
			}
			for b := 0; b < B; b++ {
				for i, j := range at {
					dOut.Row(b)[j] = dOutRef.Row(b)[i]
				}
			}
			out, outRef := tensor.NewMat(B, c.OutDim()), tensor.NewMat(B, ref.OutDim())
			sb, sbRef := c.NewBatchScratch(B), ref.NewBatchScratch(B)
			c.ForwardBatch(params, in, out, sb)
			ref.ForwardBatch(params, in, outRef, sbRef)
			one, oneRef := make([]float64, c.OutDim()), make([]float64, ref.OutDim())
			c.Forward(params, in.Row(1), one, c.NewScratch())
			ref.Forward(params, in.Row(1), oneRef, ref.NewScratch())
			for b := 0; b < B; b++ {
				for i, j := range at {
					if math.Float64bits(out.Row(b)[j]) != math.Float64bits(outRef.Row(b)[i]) {
						t.Fatalf("row %d output %d = %v, lowered %v", b, i, out.Row(b)[j], outRef.Row(b)[i])
					}
				}
			}
			for i, j := range at {
				if math.Float64bits(one[j]) != math.Float64bits(oneRef[i]) {
					t.Fatalf("per-example output %d = %v, lowered %v", i, one[j], oneRef[i])
				}
			}

			grad, gradRef := make([]float64, c.ParamCount()), make([]float64, c.ParamCount())
			dIn, dInRef := tensor.NewMat(B, c.InDim()), tensor.NewMat(B, c.InDim())
			tensor.Fill(dIn.Data, math.NaN())
			c.BackwardBatch(params, grad, in, out, dOut, dIn, sb)
			ref.BackwardBatch(params, gradRef, in, outRef, dOutRef, dInRef, sbRef)
			checkConvGrad(t, c, grad, gradRef)
			if i := sameBits(dIn.Data, dInRef.Data); i >= 0 {
				t.Fatalf("batched dIn[%d] = %v, lowered %v", i, dIn.Data[i], dInRef.Data[i])
			}

			clear(grad)
			clear(gradRef)
			d1, d1Ref := make([]float64, c.InDim()), make([]float64, c.InDim())
			s, sRef := c.NewScratch(), ref.NewScratch()
			c.Forward(params, in.Row(2), one, s)
			ref.Forward(params, in.Row(2), oneRef, sRef)
			c.Backward(params, grad, in.Row(2), one, dOut.Row(2), d1, s)
			ref.Backward(params, gradRef, in.Row(2), oneRef, dOutRef.Row(2), d1Ref, sRef)
			checkConvGrad(t, c, grad, gradRef)
			if i := sameBits(d1, d1Ref); i >= 0 {
				t.Fatalf("per-example dIn[%d] = %v, lowered %v", i, d1[i], d1Ref[i])
			}
		})
	}
}

// checkConvGrad compares one Conv2D's gradient block with the reference's:
// biases bit for bit, filters to filterTol of the largest.
func checkConvGrad(t *testing.T, c *Conv2D, got, want []float64) {
	t.Helper()
	nw := c.Filters * c.InC * c.K * c.K
	if i := sameBits(got[nw:], want[nw:]); i >= 0 {
		t.Fatalf("bias grad[%d] = %v, lowered %v", i, got[nw+i], want[nw+i])
	}
	scale := tensor.MaxAbs(want[:nw])
	for i := 0; i < nw; i++ {
		if d := math.Abs(got[i] - want[i]); !(d <= filterTol*scale) {
			t.Fatalf("filter grad[%d] = %v, lowered %v (scale %v)", i, got[i], want[i], scale)
		}
	}
}

// TestConv2DBatchOfOneMatchesPerExample: the per-example Backward runs the
// batched kernels on a batch of one image, so from a zero gradient it gives
// BackwardBatch's B = 1 gradient and input gradient bit for bit, filter
// gradient included, on both paper convolutions and odd geometries.
func TestConv2DBatchOfOneMatchesPerExample(t *testing.T) {
	r := rng.New(19)
	for _, g := range [][5]int{{1, 28, 28, 4, 3}, {4, 13, 13, 8, 3}, {3, 7, 5, 9, 2}, {2, 6, 9, 17, 1}} {
		c := NewConv2D(g[0], g[1], g[2], g[3], g[4])
		t.Run(c.Name(), func(t *testing.T) {
			vec := func(n int) []float64 {
				v := make([]float64, n)
				for i := range v {
					v[i] = r.NormFloat64()
				}
				return v
			}
			params, in, dOut := vec(c.ParamCount()), vec(c.InDim()), vec(c.OutDim())
			for j := range dOut {
				if j%c.InW >= c.OutW() {
					dOut[j] = 0
				}
			}
			out := make([]float64, c.OutDim())
			s := c.NewScratch()
			c.Forward(params, in, out, s)
			grad, dIn := make([]float64, c.ParamCount()), make([]float64, c.InDim())
			c.Backward(params, grad, in, out, dOut, dIn, s)

			gradB, dInB := make([]float64, c.ParamCount()), tensor.NewMat(1, c.InDim())
			tensor.Fill(gradB, math.NaN())
			outB := tensor.NewMat(1, c.OutDim())
			sb := c.NewBatchScratch(1)
			c.ForwardBatch(params, tensor.MatFrom(1, len(in), in), outB, sb)
			c.BackwardBatch(params, gradB, tensor.MatFrom(1, len(in), in), outB, tensor.MatFrom(1, len(dOut), dOut), dInB, sb)
			if i := sameBits(outB.Data, out); i >= 0 {
				t.Fatalf("output[%d] = %v, per example %v", i, outB.Data[i], out[i])
			}
			if i := sameBits(gradB, grad); i >= 0 {
				t.Fatalf("grad[%d] = %v, per example %v", i, gradB[i], grad[i])
			}
			if i := sameBits(dInB.Data, dIn); i >= 0 {
				t.Fatalf("dIn[%d] = %v, per example %v", i, dInB.Data[i], dIn[i])
			}
		})
	}
}

// BenchmarkConvBackward times each gradient of the paper CNN's two
// convolutions on a b = 32 minibatch alone: the filter gradient (one
// batch-wide tensor.MatMulABTRunsSum), the input gradient (Wᵀ·dOut and
// its col2im, image by image; conv₁ needs none in a network, it is timed
// for the kernels' sake) and the bias gradient (planeSums). dOut is zero
// past OutW, as the pool returns it.
func BenchmarkConvBackward(b *testing.B) {
	const B = 32
	for i, c := range []*Conv2D{NewConv2D(1, 28, 28, 4, 3), NewConv2D(4, 13, 13, 8, 3)} {
		r := rng.New(1)
		fill := func(v []float64) []float64 {
			for j := range v {
				v[j] = r.NormFloat64()
			}
			return v
		}
		params := fill(make([]float64, c.ParamCount()))
		in := tensor.MatFrom(B, c.InDim(), fill(make([]float64, B*c.InDim())))
		dOut := tensor.MatFrom(B, c.OutDim(), fill(make([]float64, B*c.OutDim())))
		for j := range dOut.Data {
			if j%c.InW >= c.OutW() {
				dOut.Data[j] = 0
			}
		}
		grad := make([]float64, c.ParamCount())
		dIn := tensor.NewMat(B, c.InDim())
		s := c.NewBatchScratch(B).(*convScratch)
		name := fmt.Sprintf("conv%d", i+1)
		b.Run(name+"/filter", func(b *testing.B) {
			for range b.N {
				c.filterGrad(grad, in, dOut, s, false)
			}
		})
		b.Run(name+"/input", func(b *testing.B) {
			for range b.N {
				for img := 0; img < B; img++ {
					c.inputGrad(params, dOut.Row(img), dIn.Row(img), s)
				}
			}
		})
		b.Run(name+"/bias", func(b *testing.B) {
			for range b.N {
				planeSums(c.biases(grad), dOut)
			}
		})
	}
}
