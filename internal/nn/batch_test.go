package nn

import (
	"fmt"
	"math"
	"testing"

	"leashedsgd/internal/data"
	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/rng"
)

// TestBatchedMatchesPerExample is the golden-equivalence proof of the
// compute path: for the MLP and CNN (every built-in layer type — Dense,
// ReLU, Conv2D, MaxPool2D), the batched loss and gradient must match the
// per-example scalar oracle to 1e-12 relative, through a flat view and
// through multi-chain segmented views (both the segment-split Dense GEMMs
// and the stitch fallback for conv blocks). Only floating-point summation
// order distinguishes the two, hence the tight bar.
func TestBatchedMatchesPerExample(t *testing.T) {
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(64, 3))
	archs := map[string]*Network{
		"SmallMLP": NewSmallMLP(ds.Dim(), ds.Classes),
		"SmallCNN": NewSmallCNN(),
	}
	batches := [][]int{
		{4},                          // single example
		{0, 5, 9, 31},                // small batch
		{3, 3, 60, 1, 17, 42, 8, 25}, // repeated index + larger batch
	}
	for name, n := range archs {
		params := make([]float64, n.ParamCount())
		n.Init(params, rng.New(7), DefaultSigma)
		for _, segsN := range []int{1, 2, 3, 7, 16} {
			pv := paramvec.FlatView(params)
			if segsN > 1 {
				pv = segment(params, segsN)
			}
			for _, indices := range batches {
				t.Run(fmt.Sprintf("%s/segs=%d/batch=%d", name, segsN, len(indices)), func(t *testing.T) {
					lossRef, gradRef := newOracle(n, pv).lossGrad(ds, indices)
					gradBatch := make([]float64, n.ParamCount())
					lossBatch := n.BatchLossGrad(pv, gradBatch, ds, data.Batch{Indices: indices}, n.NewWorkspace())

					if relErr(lossRef, lossBatch) > 1e-12 {
						t.Fatalf("loss mismatch: per-example %v, batched %v", lossRef, lossBatch)
					}
					for i := range gradRef {
						if relErr(gradRef[i], gradBatch[i]) > 1e-12 {
							t.Fatalf("grad[%d] mismatch: per-example %v, batched %v",
								i, gradRef[i], gradBatch[i])
						}
					}
				})
			}
		}
	}
}

// TestBatchedOverwrites pins BatchLossGrad's first-touch contract: the pass
// WRITES every component of grad, so a NaN-filled buffer comes back equal to
// the oracle's gradient — no component is read before it is written, none is
// left untouched, and the worker loop needs no zeroing pass.
func TestBatchedOverwrites(t *testing.T) {
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(32, 5))
	indices := []int{1, 2, 3, 4, 9, 30, 2}
	batch := data.Batch{Indices: indices}
	for name, n := range map[string]*Network{
		"SmallMLP": NewSmallMLP(ds.Dim(), ds.Classes),
		"SmallCNN": NewSmallCNN(),
	} {
		params := initParams(n, 3)
		for _, segsN := range []int{1, 5} {
			pv := paramvec.FlatView(params)
			if segsN > 1 {
				pv = segment(params, segsN)
			}
			wantLoss, want := newOracle(n, pv).lossGrad(ds, indices)
			got := make([]float64, n.ParamCount())
			ws := n.NewWorkspace()
			for pass := 0; pass < 2; pass++ { // the second pass overwrites the first's result
				for i := range got {
					got[i] = math.NaN()
				}
				if loss := n.BatchLossGrad(pv, got, ds, batch, ws); relErr(loss, wantLoss) > 1e-12 {
					t.Fatalf("%s/segs=%d: loss %v, want %v", name, segsN, loss, wantLoss)
				}
				for i := range got {
					if !(relErr(got[i], want[i]) <= 1e-12) {
						t.Fatalf("%s/segs=%d pass %d: grad[%d] = %v, want %v", name, segsN, pass, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestStagedDenseMatchesOracle holds the staged Dense kernels (outᵀ = W·inᵀ
// over a transposed batch panel, first-touch dW/db stores) to the scalar
// oracle at 1e-12, on a flat view and an S=8 segmented one whose boundaries
// cut weight rows, for batch sizes on both sides of every tile edge: 1 (the
// dot-orientation GEMV), 7 and 31 (masked lanes), 8, 16, 32 (full panels).
// Fan-outs of 40, 24 and 10 leave row remainders for either kernel tier.
func TestStagedDenseMatchesOracle(t *testing.T) {
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(64, 3))
	n := NewMLP(ds.Dim(), []int{40, 24}, ds.Classes)
	params := initParams(n, 7)
	for _, B := range []int{1, 7, 8, 16, 31, 32} {
		indices := make([]int, B)
		for i := range indices {
			indices[i] = (i*5 + B) % ds.Len()
		}
		batch := data.Batch{Indices: indices}
		xs := make([][]float64, B)
		for i, idx := range indices {
			xs[i] = ds.X[idx]
		}
		for _, view := range []struct {
			name string
			pv   paramvec.View
		}{{"flat", paramvec.FlatView(params)}, {"S=8", segment(params, 8)}} {
			t.Run(fmt.Sprintf("b=%d/%s", B, view.name), func(t *testing.T) {
				ref := newOracle(n, view.pv)
				ws := n.NewWorkspace()
				wantLoss, want := ref.lossGrad(ds, indices)
				got := make([]float64, n.ParamCount())
				if loss := n.BatchLossGrad(view.pv, got, ds, batch, ws); relErr(loss, wantLoss) > 1e-12 {
					t.Fatalf("loss %v, per-example %v", loss, wantLoss)
				}
				for i := range want {
					if relErr(got[i], want[i]) > 1e-12 {
						t.Fatalf("grad[%d] = %v, per-example %v", i, got[i], want[i])
					}
				}
				logits := n.ForwardBatch(view.pv, xs, ws)
				for r, x := range xs {
					for j, w := range ref.logits(x) {
						if relErr(logits.At(r, j), w) > 1e-12 {
							t.Fatalf("logit[%d][%d] = %v, per-example %v", r, j, logits.At(r, j), w)
						}
					}
				}
			})
		}
	}
}

// TestBatchedPassesAllocateNothingWarm: once the batch buffers have grown, a
// gradient pass and a batched forward pass allocate nothing — the staging
// panels live in the workspace, and the tile driver's dispatch costs no
// closure or interface allocation per call. The leased rows measure what a
// worker iteration does: lease every chain of a real store, run the pass
// through the zero-copy view, release — as one operation.
func TestBatchedPassesAllocateNothingWarm(t *testing.T) {
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(64, 3))
	for name, n := range map[string]*Network{"PaperMLP": NewPaperMLP(), "PaperCNN": NewPaperCNN()} {
		params := initParams(n, 7)
		type reader struct {
			name string
			read func(pass func(paramvec.View))
		}
		seg := segment(params, 8)
		readers := []reader{
			{"flat", func(pass func(paramvec.View)) { pass(paramvec.FlatView(params)) }},
			{"segmented S=8", func(pass func(paramvec.View)) { pass(seg) }},
		}
		for _, chains := range []int{1, 4, 16} {
			st := paramvec.NewStore(len(params), chains)
			st.PublishInit(params)
			t.Cleanup(st.Retire)
			lease := new(paramvec.Lease)
			readers = append(readers, reader{fmt.Sprintf("leased S=%d", chains), func(pass func(paramvec.View)) {
				pass(lease.Acquire(st))
				lease.Release()
			}})
		}
		for _, r := range readers {
			ws := n.NewWorkspace()
			grad := make([]float64, n.ParamCount())
			batch := data.Batch{Indices: []int{0, 9, 3, 17, 40, 41, 5, 63, 1, 2}}
			xs := ds.X[:10]
			gradPass := func(v paramvec.View) { n.BatchLossGrad(v, grad, ds, batch, ws) }
			fwdPass := func(v paramvec.View) { n.ForwardBatch(v, xs, ws) }
			r.read(gradPass)
			r.read(fwdPass)
			if a := testing.AllocsPerRun(5, func() { r.read(gradPass) }); a != 0 {
				t.Errorf("%s/%s: warm BatchLossGrad allocates %v objects/op, want 0", name, r.name, a)
			}
			if a := testing.AllocsPerRun(5, func() { r.read(fwdPass) }); a != 0 {
				t.Errorf("%s/%s: warm ForwardBatch allocates %v objects/op, want 0", name, r.name, a)
			}
		}
	}
}

// TestBatchGrowth verifies the lazily-sized batch buffers follow the
// largest batch seen: growing, then shrinking, keeps results exact.
func TestBatchGrowth(t *testing.T) {
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(64, 9))
	n := NewSmallCNN()
	params := make([]float64, n.ParamCount())
	n.Init(params, rng.New(5), DefaultSigma)
	ws := n.NewWorkspace()
	pv := paramvec.FlatView(params)
	for _, size := range []int{2, 16, 4, 16, 1} {
		indices := make([]int, size)
		for i := range indices {
			indices[i] = (i * 7) % ds.Len()
		}
		batch := data.Batch{Indices: indices}
		grad := make([]float64, n.ParamCount())
		got := n.BatchLossGrad(pv, grad, ds, batch, ws)
		want, _ := newOracle(n, pv).lossGrad(ds, indices)
		if relErr(got, want) > 1e-12 {
			t.Fatalf("batch=%d: loss %v, want %v", size, got, want)
		}
		if ws.cap < size {
			t.Fatalf("batch=%d: cap %d did not grow", size, ws.cap)
		}
	}
	if ws.cap != 16 {
		t.Fatalf("cap = %d, want the largest batch seen (16)", ws.cap)
	}
}
