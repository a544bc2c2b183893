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

// refEvaluate is the per-example oracle of Evaluate: one Forward (a GEMV
// chain) per selected row, the way Loss and Accuracy ran before evaluation
// was blocked.
func refEvaluate(n *Network, params []float64, ds *data.Dataset, indices []int, ws *Workspace) (loss, acc float64) {
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
		logits := n.Forward(params, ds.X[i], ws)
		total += softmaxCE(logits, ws.probs, ds.Y[i])
		if tensor.ArgMax(logits) == ds.Y[i] {
			correct++
		}
	}
	return total / float64(len(indices)), float64(correct) / float64(len(indices))
}

// plainLayer hides its layer's batched kernels, forcing a network onto the
// per-example fallback.
type plainLayer struct{ Layer }

func initParams(n *Network, seed uint64) []float64 {
	params := make([]float64, n.ParamCount())
	n.Init(params, rng.New(seed), DefaultSigma)
	return params
}

// Blocked evaluation must equal the per-example oracle to 1e-12 for both
// paper architectures, at row counts on every side of the block boundary,
// selecting rows by dataset order (nil) and by an explicit index list — and
// Loss and Accuracy must be the two halves of Evaluate exactly.
func TestEvaluateMatchesPerExample(t *testing.T) {
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(256, 3))
	nets := map[string]*Network{
		"PaperMLP": NewPaperMLP(),
		"PaperCNN": NewPaperCNN(),
		"fallback": MustNetwork(NewDense(ds.Dim(), 16), plainLayer{NewReLU(16)}, NewDense(16, ds.Classes)),
	}
	for name, n := range nets {
		if (n.blayers == nil) != (name == "fallback") {
			t.Fatalf("%s: batched kernel support is %v", name, n.blayers != nil)
		}
		params := initParams(n, 7)
		ws, wsRef := n.NewWorkspace(), n.NewWorkspace()
		for _, rows := range []int{1, 7, evalBlock, evalBlock + 1, 256} {
			head, _ := ds.Split(rows)
			explicit := make([]int, rows)
			for k := range explicit {
				explicit[k] = (k*37 + 5) % ds.Len() // a permutation prefix: no row order to lean on
			}
			cases := []struct {
				name    string
				ds      *data.Dataset
				indices []int
			}{
				{"all", head, nil},
				{"indices", ds, explicit},
			}
			for _, tc := range cases {
				t.Run(fmt.Sprintf("%s/rows=%d/%s", name, rows, tc.name), func(t *testing.T) {
					wantLoss, wantAcc := refEvaluate(n, params, tc.ds, tc.indices, wsRef)
					loss, acc := n.Evaluate(params, tc.ds, tc.indices, ws)
					if relErr(loss, wantLoss) > 1e-12 {
						t.Fatalf("loss %v, per-example %v", loss, wantLoss)
					}
					if acc != wantAcc {
						t.Fatalf("accuracy %v, per-example %v", acc, wantAcc)
					}
					if l := n.Loss(params, tc.ds, tc.indices, ws); l != loss {
						t.Fatalf("Loss %v != Evaluate loss %v", l, loss)
					}
					if a := n.Accuracy(params, tc.ds, tc.indices, ws); a != acc {
						t.Fatalf("Accuracy %v != Evaluate accuracy %v", a, acc)
					}
				})
			}
		}
	}
}

// An empty selection keeps its results: NaN loss, zero accuracy.
func TestEvaluateEmptySelection(t *testing.T) {
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(8, 3))
	n := NewSmallMLP(ds.Dim(), ds.Classes)
	params := initParams(n, 1)
	ws := n.NewWorkspace()
	if l := n.Loss(params, ds, []int{}, ws); !math.IsNaN(l) {
		t.Fatalf("Loss over no rows = %v, want NaN", l)
	}
	if a := n.Accuracy(params, ds, []int{}, ws); a != 0 {
		t.Fatalf("Accuracy over no rows = %v, want 0", a)
	}
}

// One monitor tick: a warm 256-row Loss allocates nothing, and the
// evaluation workspace's batch buffers never grow past the block nor include
// the backward half — 32-row blocks put the PaperCNN monitor's im2col
// scratch over cnn_converge's RSS bound, and nothing else would notice.
func TestEvaluateWorkspaceStaysBlockSized(t *testing.T) {
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(256, 3))
	for name, n := range map[string]*Network{"PaperMLP": NewPaperMLP(), "PaperCNN": NewPaperCNN()} {
		params := initParams(n, 7)
		ws := n.NewWorkspace()
		n.Loss(params, ds, nil, ws)
		if ws.batch.cap > evalBlock {
			t.Fatalf("%s: evaluation grew the batch buffers to %d rows, block is %d", name, ws.batch.cap, evalBlock)
		}
		if ws.batch.gradCap != 0 {
			t.Fatalf("%s: evaluation sized the backward buffers for %d rows", name, ws.batch.gradCap)
		}
		if allocs := testing.AllocsPerRun(5, func() { n.Loss(params, ds, nil, ws) }); allocs != 0 {
			t.Fatalf("%s: warm Loss allocates %v objects/op, want 0", name, allocs)
		}
	}
}

// Every inference and evaluation entry point runs Dropout as the identity —
// the monitor's loss is a function of θ alone and served predictions are
// deterministic — while the gradient entry points keep masking, on the same
// workspace, in either order.
func TestDropoutModeFollowsEntryPoint(t *testing.T) {
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(64, 4))
	build := func(relu Layer, drop *Dropout) *Network {
		return MustNetwork(NewDense(ds.Dim(), 32), relu, drop, NewDense(32, ds.Classes))
	}
	evalDrop := NewDropout(32, 0.5)
	evalDrop.Eval = true
	nets := map[string][2]*Network{
		"batched":  {build(NewReLU(32), NewDropout(32, 0.5)), build(NewReLU(32), evalDrop)},
		"fallback": {build(plainLayer{NewReLU(32)}, NewDropout(32, 0.5)), build(plainLayer{NewReLU(32)}, evalDrop)},
	}
	for name, pair := range nets {
		t.Run(name, func(t *testing.T) {
			n, ref := pair[0], pair[1]
			params := initParams(n, 9)
			pv := paramvec.FlatView(params)
			ws, wsRef := n.NewWorkspace(), ref.NewWorkspace()
			batch := data.Batch{Indices: []int{0, 3, 11, 19, 40, 41, 42, 63}}
			grad := make([]float64, n.ParamCount())
			masked := func() float64 {
				zero := make([]float64, n.ParamCount())
				return n.BatchLossGrad(pv, zero, ds, batch, ws)
			}
			plain := ref.BatchLossGrad(pv, grad, ds, batch, wsRef)

			if m := masked(); m == plain {
				t.Fatalf("gradient pass did not mask: loss %v equals the Eval network's", m)
			}
			want := ref.Loss(params, ds, nil, wsRef)
			for pass := 0; pass < 2; pass++ {
				if got := n.Loss(params, ds, nil, ws); got != want {
					t.Fatalf("Loss pass %d = %v, Eval network %v", pass, got, want)
				}
			}
			if got, w := n.Accuracy(params, ds, nil, ws), ref.Accuracy(params, ds, nil, wsRef); got != w {
				t.Fatalf("Accuracy = %v, Eval network %v", got, w)
			}
			xs := ds.X[:5]
			out, wantOut := n.ForwardBatch(pv, xs, ws), ref.ForwardBatch(pv, xs, wsRef)
			for i, v := range out.Data {
				if v != wantOut.Data[i] {
					t.Fatalf("ForwardBatch logit %d = %v, Eval network %v", i, v, wantOut.Data[i])
				}
			}
			logits := append([]float64(nil), n.Forward(params, ds.X[0], ws)...)
			for j, v := range ref.Forward(params, ds.X[0], wsRef) {
				if logits[j] != v {
					t.Fatalf("Forward logit %d = %v, Eval network %v", j, logits[j], v)
				}
			}
			if m := masked(); m == plain {
				t.Fatalf("gradient pass after inference did not mask: loss %v", m)
			}
			xs8, ys8 := make([][]float64, 8), make([]int, 8)
			for r, i := range batch.Indices {
				xs8[r], ys8[r] = ds.X[i], ds.Y[i]
			}
			if m := n.LossGrad(params, make([]float64, n.ParamCount()), xs8, ys8, ws); m == plain {
				t.Fatalf("LossGrad after inference did not mask: loss %v", m)
			}
		})
	}
}

// BenchmarkLossEval256 is one monitor tick's evaluation (256 rows).
func BenchmarkLossEval256(b *testing.B) {
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(256, 3))
	for name, n := range map[string]*Network{"PaperMLP": NewPaperMLP(), "PaperCNN": NewPaperCNN()} {
		b.Run(name, func(b *testing.B) {
			params := initParams(n, 7)
			ws := n.NewWorkspace()
			n.Loss(params, ds, nil, ws)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkLoss = n.Loss(params, ds, nil, ws)
			}
		})
	}
}

var sinkLoss float64
