package nn

import (
	"fmt"
	"math"
	"testing"

	"leashedsgd/internal/data"
	"leashedsgd/internal/paramvec"
)

// Blocked evaluation must equal the per-example scalar oracle to 1e-12 for
// both paper architectures, at row counts on every side of the block boundary,
// selecting rows by dataset order (nil) and by an explicit index list — and
// Loss and Accuracy must be the two halves of Evaluate exactly.
func TestEvaluateMatchesPerExample(t *testing.T) {
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(256, 3))
	nets := map[string]*Network{
		"PaperMLP": NewPaperMLP(),
		"PaperCNN": NewPaperCNN(),
	}
	for name, n := range nets {
		params := initParams(n, 7)
		ref := newOracle(n, paramvec.FlatView(params))
		ws := n.NewWorkspace()
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
					wantLoss, wantAcc := ref.evaluate(tc.ds, tc.indices)
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
		if ws.cap > evalBlock {
			t.Fatalf("%s: evaluation grew the batch buffers to %d rows, block is %d", name, ws.cap, evalBlock)
		}
		if ws.gradCap != 0 {
			t.Fatalf("%s: evaluation sized the backward buffers for %d rows", name, ws.gradCap)
		}
		if allocs := testing.AllocsPerRun(5, func() { n.Loss(params, ds, nil, ws) }); allocs != 0 {
			t.Fatalf("%s: warm Loss allocates %v objects/op, want 0", name, allocs)
		}
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
