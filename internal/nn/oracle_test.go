package nn

import (
	"fmt"
	"math"
	"testing"

	"leashedsgd/internal/data"
	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/rng"
)

// oracle is the test-only reference the compute path is held to: one example
// at a time, in scalar loops that share no kernel with the layers under
// test — Dense and ReLU straight from their definitions, Conv2D as a direct
// convolution, MaxPool2D as the tournament of tournamentPool — and the loss
// as log-sum-exp. It copies θ out of the view element by element, so flat
// and segmented views are read alike.
type oracle struct {
	n     *Network
	theta []float64
}

func newOracle(n *Network, pv paramvec.View) oracle {
	theta := make([]float64, pv.Len())
	for i := range theta {
		theta[i] = pv.At(i)
	}
	return oracle{n, theta}
}

// forward returns the activation at every layer boundary for one example,
// and each pool's winners.
func (o oracle) forward(x []float64) (acts [][]float64, winners map[int][]int) {
	acts = [][]float64{x}
	winners = map[int][]int{}
	for i, l := range o.n.layers {
		p, in := o.n.layerParams(o.theta, i), acts[i]
		out := make([]float64, l.OutDim())
		switch l := l.(type) {
		case *Dense:
			for r := 0; r < l.Out; r++ {
				var acc float64
				for j, v := range in {
					acc += p[r*l.In+j] * v
				}
				out[r] = acc + p[l.Out*l.In+r]
			}
		case *ReLU:
			for j, v := range in {
				if v > 0 {
					out[j] = v
				}
			}
		case *Conv2D:
			naiveConv(l, p, in, out)
		case *MaxPool2D:
			winners[i] = make([]int, len(out))
			tournamentPool{l}.forwardOne(in, out, winners[i])
		default:
			panic(fmt.Sprintf("oracle: no reference for %s", l.Name()))
		}
		acts = append(acts, out)
	}
	return acts, winners
}

// naiveConv is the direct valid convolution at c's output layout (rows InW
// apart); the columns past OutW stay zero.
func naiveConv(c *Conv2D, p, in, out []float64) {
	ckk := c.InC * c.K * c.K
	for f := 0; f < c.Filters; f++ {
		for y := 0; y < c.OutH(); y++ {
			for x := 0; x < c.OutW(); x++ {
				var acc float64
				for ch := 0; ch < c.InC; ch++ {
					for dy := 0; dy < c.K; dy++ {
						for dx := 0; dx < c.K; dx++ {
							acc += p[f*ckk+(ch*c.K+dy)*c.K+dx] * in[(ch*c.InH+y+dy)*c.InW+x+dx]
						}
					}
				}
				out[(f*c.OutH()+y)*c.InW+x] = acc + p[c.Filters*ckk+f]
			}
		}
	}
}

// naiveConvBack adds one example's filter and bias gradient to g and, with
// dIn non-nil, sets the input gradient.
func naiveConvBack(c *Conv2D, p, g, in, dOut, dIn []float64) {
	ckk := c.InC * c.K * c.K
	clear(dIn)
	for f := 0; f < c.Filters; f++ {
		for y := 0; y < c.OutH(); y++ {
			for x := 0; x < c.OutW(); x++ {
				d := dOut[(f*c.OutH()+y)*c.InW+x]
				g[c.Filters*ckk+f] += d
				for ch := 0; ch < c.InC; ch++ {
					for dy := 0; dy < c.K; dy++ {
						for dx := 0; dx < c.K; dx++ {
							w, at := f*ckk+(ch*c.K+dy)*c.K+dx, (ch*c.InH+y+dy)*c.InW+x+dx
							g[w] += d * in[at]
							if dIn != nil {
								dIn[at] += p[w] * d
							}
						}
					}
				}
			}
		}
	}
}

// logits is one example's network output.
func (o oracle) logits(x []float64) []float64 {
	acts, _ := o.forward(x)
	return acts[len(acts)-1]
}

// crossEntropy is −log softmax(z)[y] and softmax(z).
func crossEntropy(z []float64, y int) (float64, []float64) {
	m := math.Inf(-1)
	for _, v := range z {
		m = math.Max(m, v)
	}
	var sum float64
	for _, v := range z {
		sum += math.Exp(v - m)
	}
	p := make([]float64, len(z))
	for j, v := range z {
		p[j] = math.Exp(v-m) / sum
	}
	return math.Log(sum) + m - z[y], p
}

// lossGrad is the mean loss and gradient over the rows indices of ds, one
// example's backward pass after another.
func (o oracle) lossGrad(ds *data.Dataset, indices []int) (float64, []float64) {
	n := o.n
	grad := make([]float64, n.d)
	invB := 1 / float64(len(indices))
	var total float64
	for _, idx := range indices {
		acts, winners := o.forward(ds.X[idx])
		loss, d := crossEntropy(acts[len(acts)-1], ds.Y[idx])
		total += loss
		d[ds.Y[idx]]--
		for j := range d {
			d[j] *= invB
		}
		for i := len(n.layers) - 1; i >= 0; i-- {
			p, g, in := n.layerParams(o.theta, i), n.layerParams(grad, i), acts[i]
			var dIn []float64
			if i > 0 {
				dIn = make([]float64, len(in))
			}
			switch l := n.layers[i].(type) {
			case *Dense:
				for r := 0; r < l.Out; r++ {
					for j, v := range in {
						g[r*l.In+j] += d[r] * v
						if dIn != nil {
							dIn[j] += p[r*l.In+j] * d[r]
						}
					}
					g[l.Out*l.In+r] += d[r]
				}
			case *ReLU:
				for j, v := range in {
					if v > 0 && dIn != nil {
						dIn[j] = d[j]
					}
				}
			case *Conv2D:
				naiveConvBack(l, p, g, in, d, dIn)
			case *MaxPool2D:
				for k, w := range winners[i] {
					if dIn != nil {
						dIn[w] += d[k]
					}
				}
			}
			d = dIn
		}
	}
	return total * invB, grad
}

// evaluate is Evaluate's mean loss and argmax accuracy, row by row.
func (o oracle) evaluate(ds *data.Dataset, indices []int) (loss, acc float64) {
	if indices == nil {
		indices = make([]int, ds.Len())
		for i := range indices {
			indices[i] = i
		}
	}
	if len(indices) == 0 {
		return math.NaN(), 0
	}
	var total float64
	correct := 0
	for _, i := range indices {
		z := o.logits(ds.X[i])
		l, _ := crossEntropy(z, ds.Y[i])
		total += l
		best := 0
		for j, v := range z {
			if v > z[best] {
				best = j
			}
		}
		if best == ds.Y[i] {
			correct++
		}
	}
	return total / float64(len(indices)), float64(correct) / float64(len(indices))
}

func initParams(n *Network, seed uint64) []float64 {
	params := make([]float64, n.ParamCount())
	n.Init(params, rng.New(seed), DefaultSigma)
	return params
}

// TestForwardIsBatchOfOne pins the single-example entry point to the batch:
// Network.Forward is row 0 of ForwardBatch over that one row, bit for bit,
// on the flat paper MLP and CNN.
func TestForwardIsBatchOfOne(t *testing.T) {
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(16, 3))
	for name, n := range map[string]*Network{"PaperMLP": NewPaperMLP(), "PaperCNN": NewPaperCNN()} {
		t.Run(name, func(t *testing.T) {
			params := initParams(n, 5)
			ws, wsB := n.NewWorkspace(), n.NewWorkspace()
			for r, x := range ds.X {
				z := n.Forward(params, x, ws)
				want := n.ForwardBatch(paramvec.FlatView(params), ds.X[r:r+1], wsB).Row(0)
				if i := sameBits(z, want); i >= 0 {
					t.Fatalf("row %d: Forward logit %d = %v, ForwardBatch %v", r, i, z[i], want[i])
				}
			}
		})
	}
}

// TestBatchGradIsMeanOfSingles: a b = 8 gradient is the mean of its eight
// b = 1 gradients to 1e-12, on the small MLP and CNN, flat and at S = 8.
func TestBatchGradIsMeanOfSingles(t *testing.T) {
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(64, 3))
	indices := []int{3, 17, 60, 1, 17, 42, 8, 25}
	for name, n := range map[string]*Network{"SmallMLP": NewSmallMLP(ds.Dim(), ds.Classes), "SmallCNN": NewSmallCNN()} {
		params := initParams(n, 13)
		for _, view := range []struct {
			name string
			pv   paramvec.View
		}{{"flat", paramvec.FlatView(params)}, {"S=8", segment(params, 8)}} {
			t.Run(name+"/"+view.name, func(t *testing.T) {
				ws := n.NewWorkspace()
				got := make([]float64, n.ParamCount())
				loss := n.BatchLossGrad(view.pv, got, ds, data.Batch{Indices: indices}, ws)
				mean := make([]float64, n.ParamCount())
				one := make([]float64, n.ParamCount())
				var meanLoss float64
				for _, idx := range indices {
					meanLoss += n.BatchLossGrad(view.pv, one, ds, data.Batch{Indices: []int{idx}}, ws) / 8
					for i, v := range one {
						mean[i] += v / 8
					}
				}
				if relErr(loss, meanLoss) > 1e-12 {
					t.Fatalf("loss %v, mean of singles %v", loss, meanLoss)
				}
				for i := range got {
					if relErr(got[i], mean[i]) > 1e-12 {
						t.Fatalf("grad[%d] = %v, mean of singles %v", i, got[i], mean[i])
					}
				}
			})
		}
	}
}
