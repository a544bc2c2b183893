package nn

import (
	"math"
	"testing"

	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/rng"
)

// splitView slices params into nseg near-equal contiguous segments and
// returns the segmented view over them (aliasing params).
func splitView(params []float64, nseg int) paramvec.View {
	segs := make([][]float64, 0, nseg)
	offs := make([]int, 1, nseg+1)
	for s := 0; s < nseg; s++ {
		lo := s * len(params) / nseg
		hi := (s + 1) * len(params) / nseg
		segs = append(segs, params[lo:hi])
		offs = append(offs, hi)
	}
	return paramvec.SegmentedView(segs, offs)
}

// ForwardBatch over five rows and ForwardView on each row alone must agree
// with the per-example scalar oracle to 1e-9, on the MLP and the CNN, for
// flat and segmented parameter views.
func TestForwardBatchMatchesForwardView(t *testing.T) {
	nets := []struct {
		name string
		net  *Network
	}{
		{"mlp", NewMLP(36, []int{16, 12}, 10)},
		{"cnn-small", NewSmallCNN()},
	}
	const B = 5
	for _, tc := range nets {
		t.Run(tc.name, func(t *testing.T) {
			net := tc.net
			params := make([]float64, net.ParamCount())
			net.Init(params, rng.New(7), DefaultSigma)
			r := rng.New(11)
			xs := make([][]float64, B)
			for i := range xs {
				xs[i] = make([]float64, net.InDim())
				for j := range xs[i] {
					xs[i][j] = r.NormFloat64()
				}
			}
			views := []struct {
				name string
				pv   paramvec.View
			}{
				{"flat", paramvec.FlatView(params)},
				{"segmented", splitView(params, 7)},
			}
			for _, vv := range views {
				t.Run(vv.name, func(t *testing.T) {
					ref := newOracle(net, vv.pv)
					want := make([][]float64, B)
					for i, x := range xs {
						want[i] = ref.logits(x)
					}
					ws, wsOne := net.NewWorkspace(), net.NewWorkspace()
					out := net.ForwardBatch(vv.pv, xs, ws)
					if out.Rows != B || out.Cols != net.OutDim() {
						t.Fatalf("output is %dx%d, want %dx%d", out.Rows, out.Cols, B, net.OutDim())
					}
					for i := 0; i < B; i++ {
						row, one := out.Row(i), net.ForwardView(vv.pv, xs[i], wsOne)
						for j, w := range want[i] {
							if math.Abs(row[j]-w) > 1e-9 || math.Abs(one[j]-w) > 1e-9 {
								t.Fatalf("row %d logit %d = %v, alone %v, want %v", i, j, row[j], one[j], w)
							}
						}
					}
				})
			}
		})
	}
}

// The inference path is allocation-free in steady state: batch buffers grow
// once, then every ForwardBatch, and Forward's batch of one, reuses them.
func TestForwardBatchNoSteadyStateAllocs(t *testing.T) {
	net := NewMLP(36, []int{16}, 10)
	params := make([]float64, net.ParamCount())
	net.Init(params, rng.New(3), DefaultSigma)
	pv := paramvec.FlatView(params)
	const B = 8
	xs := make([][]float64, B)
	for i := range xs {
		xs[i] = make([]float64, net.InDim())
	}
	ws := net.NewWorkspace()
	net.ForwardBatch(pv, xs, ws) // warm the batch buffers
	allocs := testing.AllocsPerRun(50, func() {
		net.ForwardBatch(pv, xs, ws)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ForwardBatch allocates %v objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { net.Forward(params, xs[0], ws) }); allocs != 0 {
		t.Fatalf("steady-state Forward allocates %v objects/op, want 0", allocs)
	}
}

// SoftmaxInto produces a normalized distribution and matches the training
// path's probabilities.
func TestSoftmaxInto(t *testing.T) {
	logits := []float64{2, -1, 0.5, 700, 699} // large values: max-shift must hold
	probs := make([]float64, len(logits))
	SoftmaxInto(logits, probs)
	sum := 0.0
	for i, p := range probs {
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("probs[%d] = %v", i, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("sum(probs) = %v, want 1", sum)
	}
	if probs[3] <= probs[4] || probs[3] < 0.7 {
		t.Fatalf("dominant logit not dominant: %v", probs)
	}
}
