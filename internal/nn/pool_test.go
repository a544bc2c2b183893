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

// tournamentPool is the compare-and-branch max-pool the branchless kernel
// replaced, kept as the reference: two pairs, then a final, each keeping the
// earlier input on a tie (Size 2), or a row-major scan with a strict > (any
// other Size). Its winners index each example's own input, whose rows are
// RowStride apart.
type tournamentPool struct{ *MaxPool2D }

func (p tournamentPool) forwardOne(in, out []float64, argmax []int) {
	outH, outW, rs := p.OutH(), p.OutW(), p.RowStride
	oi := 0
	for ch := 0; ch < p.C; ch++ {
		base := ch * p.InH * rs
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				if p.Size == 2 {
					i0 := base + oy*2*rs + ox*2
					i2 := i0 + rs
					v0, v1, v2, v3 := in[i0], in[i0+1], in[i2], in[i2+1]
					b01, j01 := v0, i0
					if v1 > v0 {
						b01, j01 = v1, i0+1
					}
					b23, j23 := v2, i2
					if v3 > v2 {
						b23, j23 = v3, i2+1
					}
					if b23 > b01 {
						b01, j01 = b23, j23
					}
					out[oi], argmax[oi] = b01, j01
					oi++
					continue
				}
				bestIdx := base + oy*p.Size*rs + ox*p.Size
				best := in[bestIdx]
				for dy := 0; dy < p.Size; dy++ {
					rowBase := base + (oy*p.Size+dy)*rs + ox*p.Size
					for dx := 0; dx < p.Size; dx++ {
						if v := in[rowBase+dx]; v > best {
							best, bestIdx = v, rowBase+dx
						}
					}
				}
				out[oi], argmax[oi] = best, bestIdx
				oi++
			}
		}
	}
}

func (p tournamentPool) Forward(_, in, out []float64, scratch any) {
	p.forwardOne(in, out, scratch.(*poolScratch).argmax)
}

func (p tournamentPool) Backward(_, _, _, _, dOut, dIn []float64, scratch any) {
	if dIn != nil {
		route(dOut, dIn, scratch.(*poolScratch).argmax)
	}
}

func (p tournamentPool) ForwardBatch(_ []float64, in, out tensor.Mat, scratch any) {
	od := p.OutDim()
	a := scratch.(*poolScratch).argmax
	for b := 0; b < in.Rows; b++ {
		p.forwardOne(in.Row(b), out.Row(b), a[b*od:(b+1)*od])
	}
}

func (p tournamentPool) BackwardBatch(_, _ []float64, _, _, dOut, dIn tensor.Mat, scratch any) {
	if dIn.Data == nil {
		return
	}
	od := p.OutDim()
	a := scratch.(*poolScratch).argmax
	for b := 0; b < dOut.Rows; b++ {
		route(dOut.Row(b), dIn.Row(b), a[b*od:(b+1)*od])
	}
}

// strideConv is a Conv2D whose output a layer other than its MaxPool2D reads
// at its row stride: NewNetwork checks only a *Conv2D's consumer.
type strideConv struct{ *Conv2D }

// convReLUPool rebuilds a CNN from NewPaperCNN/NewSmallCNN in the order
// conv → ReLU → pool with the tournament pool, sharing every other layer.
func convReLUPool(t *testing.T, n *Network) *Network {
	t.Helper()
	var layers []Layer
	for i := 0; i < len(n.layers); i++ {
		if c, ok := n.layers[i].(*Conv2D); ok {
			layers = append(layers, strideConv{c})
			continue
		}
		if p, ok := n.layers[i].(*MaxPool2D); ok {
			if _, ok := n.layers[i+1].(*ReLU); !ok {
				t.Fatalf("%s is not followed by a ReLU", p.Name())
			}
			layers = append(layers, NewReLU(p.InDim()), tournamentPool{p})
			i++ // the ReLU moved ahead of the pool
			continue
		}
		layers = append(layers, n.layers[i])
	}
	return MustNetwork(layers...)
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestCNNReLUAfterPoolBitIdentical pins the CNNs' ReLU-after-pool order and
// the branchless pool to the conv → ReLU → pool order with the tournament
// pool: over 20 b = 32 SGD steps the loss, the gradient and θ agree bit for
// bit, and so do the evaluated loss and accuracy and a single-row forward.
func TestCNNReLUAfterPoolBitIdentical(t *testing.T) {
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(256, 3))
	for name, n := range map[string]*Network{"PaperCNN": NewPaperCNN(), "SmallCNN": NewSmallCNN()} {
		t.Run(name, func(t *testing.T) {
			ref := convReLUPool(t, n)
			if name == "PaperCNN" && n.ParamCount() != 27354 {
				t.Fatalf("paper CNN d = %d, want 27354", n.ParamCount())
			}
			if ref.ParamCount() != n.ParamCount() {
				t.Fatalf("d = %d, reference order has %d", n.ParamCount(), ref.ParamCount())
			}
			theta, thetaRef := initParams(n, 11), initParams(n, 11)
			grad, gradRef := make([]float64, n.ParamCount()), make([]float64, n.ParamCount())
			ws, wsRef := n.NewWorkspace(), ref.NewWorkspace()
			sampler := data.NewSampler(ds.Len(), 32, 5, 0)
			for step := 0; step < 20; step++ {
				batch := sampler.Next()
				loss := n.BatchLossGrad(paramvec.FlatView(theta), grad, ds, batch, ws)
				lossRef := ref.BatchLossGrad(paramvec.FlatView(thetaRef), gradRef, ds, batch, wsRef)
				if math.Float64bits(loss) != math.Float64bits(lossRef) {
					t.Fatalf("step %d: loss %v, reference %v", step, loss, lossRef)
				}
				if i := sameBits(grad, gradRef); i >= 0 {
					t.Fatalf("step %d: grad[%d] = %v, reference %v", step, i, grad[i], gradRef[i])
				}
				tensor.Axpy(-0.5, grad, theta)
				tensor.Axpy(-0.5, gradRef, thetaRef)
			}
			if i := sameBits(theta, thetaRef); i >= 0 {
				t.Fatalf("θ[%d] = %v, reference %v", i, theta[i], thetaRef[i])
			}
			loss, acc := n.Evaluate(theta, ds, nil, ws)
			lossRef, accRef := ref.Evaluate(theta, ds, nil, wsRef)
			if math.Float64bits(loss) != math.Float64bits(lossRef) || acc != accRef {
				t.Fatalf("Evaluate = (%v, %v), reference (%v, %v)", loss, acc, lossRef, accRef)
			}
			z := append([]float64(nil), n.Forward(theta, ds.X[7], ws)...)
			if i := sameBits(z, ref.Forward(theta, ds.X[7], wsRef)); i >= 0 {
				t.Fatalf("single-row forward differs at logit %d", i)
			}
		})
	}
}

// poolInput fills planes with values drawn from a five-value set, so windows
// hold ties at both signs of zero and at nonzero values.
func poolInput(n int, seed uint64) []float64 {
	vals := []float64{-1, math.Copysign(0, -1), 0, 1, 2}
	r := rng.New(seed)
	x := make([]float64, n)
	for i := range x {
		x[i] = vals[r.Intn(len(vals))]
	}
	return x
}

// TestMaxPoolMatchesTournament checks the pool against the tournament on
// planted ties, ±0 and odd borders (11×11 → 5×5 included): every output
// must == the tournament's, every winner must be the same, and the routed
// gradient must match bit for bit — per example and as a batch.
func TestMaxPoolMatchesTournament(t *testing.T) {
	const B = 4
	for _, p := range []*MaxPool2D{
		NewMaxPool2D(8, 11, 11, 2),
		NewMaxPool2D(4, 26, 26, 2),
		NewMaxPool2D(3, 7, 5, 2),
		NewMaxPool2D(2, 11, 10, 3),
	} {
		t.Run(p.Name(), func(t *testing.T) {
			ref := tournamentPool{p}
			in := tensor.MatFrom(B, p.InDim(), poolInput(B*p.InDim(), 3))
			dOut := tensor.MatFrom(B, p.OutDim(), poolInput(B*p.OutDim(), 4))
			out, outRef := tensor.NewMat(B, p.OutDim()), tensor.NewMat(B, p.OutDim())
			dIn, dInRef := tensor.NewMat(B, p.InDim()), tensor.NewMat(B, p.InDim())
			s, sRef := p.NewBatchScratch(B), p.NewBatchScratch(B)
			p.ForwardBatch(nil, in, out, s)
			ref.ForwardBatch(nil, in, outRef, sRef)
			p.BackwardBatch(nil, nil, in, out, dOut, dIn, s)
			ref.BackwardBatch(nil, nil, in, outRef, dOut, dInRef, sRef)
			a, aRef := s.(*poolScratch).argmax, sRef.(*poolScratch).argmax
			for b := 0; b < B; b++ {
				for o := 0; o < p.OutDim(); o++ {
					i := b*p.OutDim() + o
					if out.Data[i] != outRef.Data[i] || a[i] != b*p.InDim()+aRef[i] {
						t.Fatalf("row %d output %d: %v from %d, tournament %v from %d",
							b, o, out.Data[i], a[i]-b*p.InDim(), outRef.Data[i], aRef[i])
					}
				}
			}
			if i := sameBits(dIn.Data, dInRef.Data); i >= 0 {
				t.Fatalf("batched gradient differs at input %d", i)
			}

			one, oneRef := p.NewScratch(), ref.NewScratch()
			o1, o1Ref := make([]float64, p.OutDim()), make([]float64, p.OutDim())
			d1, d1Ref := make([]float64, p.InDim()), make([]float64, p.InDim())
			p.Forward(nil, in.Row(1), o1, one)
			ref.Forward(nil, in.Row(1), o1Ref, oneRef)
			p.Backward(nil, nil, in.Row(1), o1, dOut.Row(1), d1, one)
			ref.Backward(nil, nil, in.Row(1), o1Ref, dOut.Row(1), d1Ref, oneRef)
			for o := range o1 {
				if o1[o] != o1Ref[o] || one.(*poolScratch).argmax[o] != oneRef.(*poolScratch).argmax[o] {
					t.Fatalf("per-example output %d: %v, tournament %v", o, o1[o], o1Ref[o])
				}
			}
			if i := sameBits(d1, d1Ref); i >= 0 {
				t.Fatalf("per-example gradient differs at input %d", i)
			}
		})
	}
}

// TestMaxPoolNaNPropagates: a NaN anywhere in a window pools to NaN, with
// the rest of the window finite, on the 2×2 kernel and the general one.
func TestMaxPoolNaNPropagates(t *testing.T) {
	for _, size := range []int{2, 3} {
		for pos := 0; pos < size*size; pos++ {
			t.Run(fmt.Sprintf("size=%d/pos=%d", size, pos), func(t *testing.T) {
				p := NewMaxPool2D(1, size, size, size)
				in := make([]float64, size*size)
				for i := range in {
					in[i] = float64(i%3) - 1
				}
				in[pos] = math.NaN()
				out := make([]float64, 1)
				p.Forward(nil, in, out, p.NewScratch())
				outB := tensor.NewMat(1, 1)
				p.ForwardBatch(nil, tensor.MatFrom(1, len(in), in), outB, p.NewBatchScratch(1))
				if !math.IsNaN(out[0]) || !math.IsNaN(outB.Data[0]) {
					t.Fatalf("NaN at %d pooled to %v (batched %v)", pos, out[0], outB.Data[0])
				}
			})
		}
	}
}

// BenchmarkMaxPool2D is the paper CNN's first pool (4×26×26 → 4×13×13,
// reading conv₁'s rows 28 apart, as the network builds it) on a b = 32
// minibatch, forward and backward.
func BenchmarkMaxPool2D(b *testing.B) {
	const B = 32
	p := NewConv2D(1, 28, 28, 4, 3).Pool(2)
	r := rng.New(1)
	in, dOut := tensor.NewMat(B, p.InDim()), tensor.NewMat(B, p.OutDim())
	for i := range in.Data {
		in.Data[i] = r.NormFloat64()
	}
	for i := range dOut.Data {
		dOut.Data[i] = r.NormFloat64()
	}
	out, dIn := tensor.NewMat(B, p.OutDim()), tensor.NewMat(B, p.InDim())
	s := p.NewBatchScratch(B)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ForwardBatch(nil, in, out, s)
		p.BackwardBatch(nil, nil, in, out, dOut, dIn, s)
	}
}

// TestRowSumsMatchesSum: the four-chain bias sum (planeSums) is tensor.Sum
// over each plane, bit for bit, for every remainder of planes modulo four —
// over one row holding the planes, and over several rows, where each plane's
// chain runs on from one row into the next.
func TestRowSumsMatchesSum(t *testing.T) {
	r := rng.New(9)
	for planes := 1; planes <= 9; planes++ {
		for _, cols := range []int{1, 7, 676} {
			for _, rows := range []int{1, 3} {
				m := tensor.NewMat(rows, planes*cols)
				for i := range m.Data {
					m.Data[i] = r.NormFloat64() * math.Exp(4*r.NormFloat64())
				}
				got := make([]float64, planes)
				planeSums(got, m)
				for f := range got {
					var ends []float64
					for b := 0; b < rows; b++ {
						ends = append(ends, m.Row(b)[f*cols:(f+1)*cols]...)
					}
					if want := tensor.Sum(ends); math.Float64bits(got[f]) != math.Float64bits(want) {
						t.Fatalf("%d rows of %d×%d, plane %d: %v, Sum %v", rows, planes, cols, f, got[f], want)
					}
				}
			}
		}
	}
}
