package nn

import (
	"math"
	"strings"
	"testing"

	"leashedsgd/internal/data"
	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/rng"
	"leashedsgd/internal/tensor"
)

// --- architecture / parameter layout ------------------------------------

// TestMLPParamCount asserts the paper's Table II dimension exactly:
// d = 134,794 for the 784→128→128→128→10 MLP.
func TestMLPParamCount(t *testing.T) {
	n := NewPaperMLP()
	if got := n.ParamCount(); got != 134794 {
		t.Fatalf("paper MLP d = %d, want 134794 (Table II)", got)
	}
	if n.InDim() != 784 || n.OutDim() != 10 {
		t.Fatalf("paper MLP dims %d→%d", n.InDim(), n.OutDim())
	}
}

// TestCNNParamCount asserts the paper's Table III dimension exactly:
// d = 27,354 for the Conv4-Pool-Conv8-Pool-Dense128-Dense10 CNN.
func TestCNNParamCount(t *testing.T) {
	n := NewPaperCNN()
	if got := n.ParamCount(); got != 27354 {
		t.Fatalf("paper CNN d = %d, want 27354 (Table III)", got)
	}
	if n.InDim() != 784 || n.OutDim() != 10 {
		t.Fatalf("paper CNN dims %d→%d", n.InDim(), n.OutDim())
	}
}

func TestNewNetworkRejectsMismatch(t *testing.T) {
	_, err := NewNetwork(NewDense(4, 8), NewDense(9, 2))
	if err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if !strings.Contains(err.Error(), "expects input") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestNewNetworkRejectsEmpty(t *testing.T) {
	if _, err := NewNetwork(); err == nil {
		t.Fatal("empty network accepted")
	}
}

func TestArchString(t *testing.T) {
	n := NewSmallMLP(4, 3)
	s := n.Arch()
	if !strings.Contains(s, "Dense(4→32)") || !strings.Contains(s, "ReLU(32)") {
		t.Fatalf("Arch = %q", s)
	}
}

func TestDenseParamLayout(t *testing.T) {
	d := NewDense(3, 2)
	if d.ParamCount() != 8 {
		t.Fatalf("Dense(3,2) params = %d, want 8", d.ParamCount())
	}
	params := []float64{
		1, 2, 3, // W row 0
		4, 5, 6, // W row 1
		10, 20, // biases
	}
	out := tensor.NewMat(1, 2)
	d.ForwardBatch(params, tensor.MatFrom(1, 3, []float64{1, 1, 1}), out, d.NewBatchScratch(1))
	if out.Data[0] != 16 || out.Data[1] != 35 {
		t.Fatalf("Dense forward = %v, want [16 35]", out.Data)
	}
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU(3)
	in, out := tensor.MatFrom(1, 3, []float64{-1, 0, 2}), tensor.NewMat(1, 3)
	r.ForwardBatch(nil, in, out, nil)
	if out.Data[0] != 0 || out.Data[1] != 0 || out.Data[2] != 2 {
		t.Fatalf("ReLU forward = %v", out.Data)
	}
	dIn := tensor.NewMat(1, 3)
	r.BackwardBatch(nil, nil, in, out, tensor.MatFrom(1, 3, []float64{5, 5, 5}), dIn, nil)
	if dIn.Data[0] != 0 || dIn.Data[1] != 0 || dIn.Data[2] != 5 {
		t.Fatalf("ReLU backward = %v", dIn.Data)
	}
}

func TestConvGeometry(t *testing.T) {
	c := NewConv2D(1, 28, 28, 4, 3)
	// Output rows keep the input's width: 26 valid columns of 28.
	if c.OutH() != 26 || c.OutW() != 26 || c.OutDim() != 4*26*28 {
		t.Fatalf("conv out %dx%d dim %d", c.OutH(), c.OutW(), c.OutDim())
	}
	if c.ParamCount() != 4*9+4 {
		t.Fatalf("conv params %d, want 40", c.ParamCount())
	}
	if p := c.Pool(2); p.RowStride != 28 || p.InDim() != c.OutDim() || p.OutDim() != 4*13*13 {
		t.Fatalf("conv pool stride %d in %d out %d", p.RowStride, p.InDim(), p.OutDim())
	}
}

func TestConvForwardKnown(t *testing.T) {
	// 1 channel 3x3 input, 1 filter 2x2 of all ones, bias 0.5.
	c := NewConv2D(1, 3, 3, 1, 2)
	params := []float64{1, 1, 1, 1, 0.5}
	in := []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	outM := tensor.NewMat(1, c.OutDim())
	c.ForwardBatch(params, tensor.MatFrom(1, len(in), in), outM, c.NewBatchScratch(1))
	out := outM.Data
	// windows: (1+2+4+5)=12, (2+3+5+6)=16, (4+5+7+8)=24, (5+6+8+9)=28, +0.5;
	// output rows are InW = 3 apart.
	want := []float64{12.5, 16.5, 24.5, 28.5}
	for y := 0; y < c.OutH(); y++ {
		for x := 0; x < c.OutW(); x++ {
			if got := out[y*c.InW+x]; got != want[y*c.OutW()+x] {
				t.Fatalf("conv out = %v, want %v in the first %d columns of each row", out, want, c.OutW())
			}
		}
	}
}

// TestConvNeedsItsPool checks that NewNetwork accepts a Conv2D only when its
// own pool reads it, directly or after ReLUs: no other layer knows that its
// rows are InW apart.
func TestConvNeedsItsPool(t *testing.T) {
	c := NewConv2D(1, 6, 6, 2, 3) // → 2×4×4, rows 6 apart
	if _, err := NewNetwork(c, c.Pool(2), NewDense(8, 3)); err != nil {
		t.Fatalf("conv → its pool rejected: %v", err)
	}
	if _, err := NewNetwork(c, NewReLU(c.OutDim()), c.Pool(2), NewDense(8, 3)); err != nil {
		t.Fatalf("conv → ReLU → its pool rejected: %v", err)
	}
	for name, layers := range map[string][]Layer{
		"dense":        {c, NewDense(c.OutDim(), 3)},
		"relu":         {c, NewReLU(c.OutDim()), NewDense(c.OutDim(), 3)},
		"compact pool": {c, NewMaxPool2D(2, 4, 4, 2), NewDense(8, 3)},
		"wide pool":    {c, NewMaxPool2D(2, 4, 6, 2), NewDense(12, 3)},
		"last":         {c},
	} {
		if _, err := NewNetwork(layers...); err == nil {
			t.Errorf("%s: conv without its pool accepted", name)
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	p := NewMaxPool2D(1, 4, 4, 2)
	in := []float64{
		1, 2, 0, 0,
		3, 4, 0, 9,
		5, 0, 1, 1,
		0, 6, 1, 2,
	}
	inM, out := tensor.MatFrom(1, len(in), in), tensor.NewMat(1, p.OutDim())
	s := p.NewBatchScratch(1)
	p.ForwardBatch(nil, inM, out, s)
	want := []float64{4, 9, 6, 2}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("pool out = %v, want %v", out.Data, want)
		}
	}
	dIn := tensor.NewMat(1, len(in))
	p.BackwardBatch(nil, nil, inM, out, tensor.MatFrom(1, 4, []float64{1, 2, 3, 4}), dIn, s)
	if d := dIn.Data; d[5] != 1 || d[7] != 2 || d[13] != 3 || d[15] != 4 {
		t.Fatalf("pool backward = %v", d)
	}
	var sum float64
	for _, v := range dIn.Data {
		sum += v
	}
	if sum != 10 {
		t.Fatalf("pool backward leaks gradient: sum = %v", sum)
	}
}

func TestMaxPoolFloorDivision(t *testing.T) {
	// The paper's CNN pools an 11x11 map with 2x2 -> 5x5 (floor).
	p := NewMaxPool2D(8, 11, 11, 2)
	if p.OutH() != 5 || p.OutW() != 5 {
		t.Fatalf("11x11 pool2 -> %dx%d, want 5x5", p.OutH(), p.OutW())
	}
}

// --- numerical gradient checks -------------------------------------------

// randomBatch is a dataset of b uniform inputs for n with random labels.
func randomBatch(n *Network, r *rng.Rand, b int) (*data.Dataset, data.Batch) {
	ds := &data.Dataset{X: make([][]float64, b), Y: make([]int, b), Classes: n.OutDim()}
	batch := data.Batch{Indices: make([]int, b)}
	for i := range ds.X {
		ds.X[i] = make([]float64, n.InDim())
		for j := range ds.X[i] {
			ds.X[i][j] = r.Float64()
		}
		ds.Y[i] = r.Intn(n.OutDim())
		batch.Indices[i] = i
	}
	return ds, batch
}

// numGradCheck compares BatchLossGrad's gradient with central finite
// differences of its loss at a random subset of coordinates, at b ∈ {1, 4},
// through a flat view and an S = 8 segmented one.
func numGradCheck(t *testing.T, n *Network, seed uint64, checks int, tol float64) {
	t.Helper()
	r := rng.New(seed)
	params := make([]float64, n.ParamCount())
	n.Init(params, r, 0.3)
	ws := n.NewWorkspace()
	for _, B := range []int{1, 4} {
		ds, batch := randomBatch(n, r, B)
		for _, S := range []int{1, 8} {
			pv := paramvec.FlatView(params)
			if S > 1 {
				pv = segment(params, S)
			}
			grad := make([]float64, n.ParamCount())
			n.BatchLossGrad(pv, grad, ds, batch, ws)
			scratch := make([]float64, n.ParamCount())
			const h = 1e-5
			for c := 0; c < checks; c++ {
				i := r.Intn(n.ParamCount())
				orig := params[i]
				params[i] = orig + h
				lp := n.BatchLossGrad(pv, scratch, ds, batch, ws)
				params[i] = orig - h
				lm := n.BatchLossGrad(pv, scratch, ds, batch, ws)
				params[i] = orig
				numeric := (lp - lm) / (2 * h)
				if math.Abs(numeric-grad[i]) > tol*(1+math.Abs(numeric)) {
					t.Errorf("b=%d, S=%d: param %d: analytic %.8f vs numeric %.8f", B, S, i, grad[i], numeric)
				}
			}
		}
	}
}

func TestGradCheckMLP(t *testing.T) {
	n := NewMLP(6, []int{5, 4}, 3)
	numGradCheck(t, n, 42, 60, 1e-4)
}

func TestGradCheckCNN(t *testing.T) {
	// Tiny CNN touching every layer type.
	conv := NewConv2D(1, 6, 6, 2, 3) // → 2×4×4, rows 6 apart
	pool := conv.Pool(2)             // → 2×2×2 = 8
	relu := NewReLU(pool.OutDim())
	dense := NewDense(8, 3)
	n := MustNetwork(conv, pool, relu, dense)
	numGradCheck(t, n, 43, 40, 1e-4)
}

func TestGradCheckDeepMLP(t *testing.T) {
	n := NewMLP(4, []int{8, 8, 8}, 2)
	numGradCheck(t, n, 44, 50, 1e-4)
}

// --- loss semantics ------------------------------------------------------

func TestInitialLossIsLnClasses(t *testing.T) {
	// With N(0, 0.01)-initialized weights the softmax is near-uniform, so
	// the initial loss must be ≈ ln(10) ≈ 2.3 — the f(θ0) the paper's ε
	// thresholds are defined against.
	n := NewPaperMLP()
	r := rng.New(7)
	params := make([]float64, n.ParamCount())
	n.Init(params, r, DefaultSigma)
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(64, 5))
	ws := n.NewWorkspace()
	loss := n.Loss(params, ds, nil, ws)
	if math.Abs(loss-math.Log(10)) > 0.2 {
		t.Fatalf("initial loss = %v, want ≈ %v", loss, math.Log(10))
	}
}

func TestSoftmaxCEKnownValues(t *testing.T) {
	probs := make([]float64, 3)
	// Uniform logits -> p = 1/3.
	loss := softmaxCE([]float64{1, 1, 1}, probs, 0)
	if math.Abs(loss-math.Log(3)) > 1e-12 {
		t.Fatalf("uniform CE = %v, want ln 3", loss)
	}
	for _, p := range probs {
		if math.Abs(p-1.0/3) > 1e-12 {
			t.Fatalf("uniform probs = %v", probs)
		}
	}
	// Strongly peaked at the true class -> tiny loss.
	loss = softmaxCE([]float64{20, 0, 0}, probs, 0)
	if loss > 1e-6 {
		t.Fatalf("confident CE = %v", loss)
	}
}

func TestSoftmaxCEOverflowSafe(t *testing.T) {
	probs := make([]float64, 2)
	loss := softmaxCE([]float64{1e4, -1e4}, probs, 1)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("overflow: loss = %v", loss)
	}
}

func TestLossGradReducesLoss(t *testing.T) {
	// One plain gradient step on a fixed batch must reduce that batch's loss.
	n := NewSmallMLP(16, 4)
	r := rng.New(3)
	params := make([]float64, n.ParamCount())
	n.Init(params, r, 0.3)
	ws := n.NewWorkspace()
	ds, batch := randomBatch(n, r, 8)
	pv := paramvec.FlatView(params)
	grad := make([]float64, n.ParamCount())
	before := n.BatchLossGrad(pv, grad, ds, batch, ws)
	for i := range params {
		params[i] -= 0.05 * grad[i]
	}
	after := n.BatchLossGrad(pv, grad, ds, batch, ws)
	if after >= before {
		t.Fatalf("gradient step did not reduce loss: %v -> %v", before, after)
	}
}

func TestTrainingConvergesSequential(t *testing.T) {
	// End-to-end sanity: plain SGD on the synthetic dataset must cut the
	// loss in half (the paper's ε=50% criterion) well within budget.
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(256, 9))
	n := NewSmallMLP(ds.Dim(), ds.Classes)
	r := rng.New(1)
	params := make([]float64, n.ParamCount())
	n.Init(params, r, DefaultSigma)
	ws := n.NewWorkspace()
	sampler := data.NewSampler(ds.Len(), 16, 2, 0)
	grad := make([]float64, n.ParamCount())
	initial := n.Loss(params, ds, nil, ws)
	for iter := 0; iter < 2000; iter++ {
		batch := sampler.Next()
		for i := range grad {
			grad[i] = 0
		}
		n.BatchLossGrad(paramvec.FlatView(params), grad, ds, batch, ws)
		for i := range params {
			params[i] -= 0.05 * grad[i]
		}
		if iter%200 == 199 && n.Loss(params, ds, nil, ws) < initial/2 {
			return
		}
	}
	final := n.Loss(params, ds, nil, ws)
	if final >= initial/2 {
		t.Fatalf("sequential SGD failed 50%% convergence: %v -> %v", initial, final)
	}
}

func TestAccuracyImproves(t *testing.T) {
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(200, 21))
	n := NewSmallMLP(ds.Dim(), ds.Classes)
	r := rng.New(2)
	params := make([]float64, n.ParamCount())
	n.Init(params, r, DefaultSigma)
	ws := n.NewWorkspace()
	before := n.Accuracy(params, ds, nil, ws)
	sampler := data.NewSampler(ds.Len(), 16, 3, 0)
	grad := make([]float64, n.ParamCount())
	for iter := 0; iter < 1500; iter++ {
		batch := sampler.Next()
		for i := range grad {
			grad[i] = 0
		}
		n.BatchLossGrad(paramvec.FlatView(params), grad, ds, batch, ws)
		for i := range params {
			params[i] -= 0.05 * grad[i]
		}
	}
	after := n.Accuracy(params, ds, nil, ws)
	if after < before+0.3 {
		t.Fatalf("accuracy barely moved: %v -> %v", before, after)
	}
}

func TestLossSubsetIndices(t *testing.T) {
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(50, 4))
	n := NewSmallMLP(ds.Dim(), ds.Classes)
	r := rng.New(5)
	params := make([]float64, n.ParamCount())
	n.Init(params, r, DefaultSigma)
	ws := n.NewWorkspace()
	full := n.Loss(params, ds, nil, ws)
	all := make([]int, ds.Len())
	for i := range all {
		all[i] = i
	}
	viaIdx := n.Loss(params, ds, all, ws)
	if math.Abs(full-viaIdx) > 1e-12 {
		t.Fatalf("Loss(nil) = %v but Loss(all indices) = %v", full, viaIdx)
	}
}

func TestWorkspaceIndependence(t *testing.T) {
	// Two workspaces evaluating the same params must agree — the invariant
	// that lets workers share a Network.
	n := NewPaperCNN()
	r := rng.New(8)
	params := make([]float64, n.ParamCount())
	n.Init(params, r, DefaultSigma)
	x := make([]float64, n.InDim())
	for i := range x {
		x[i] = r.Float64()
	}
	w1, w2 := n.NewWorkspace(), n.NewWorkspace()
	o1 := n.Forward(params, x, w1)
	o2 := n.Forward(params, x, w2)
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("workspaces disagree at logit %d: %v vs %v", i, o1[i], o2[i])
		}
	}
}

func BenchmarkMLPForward(b *testing.B) {
	n := NewPaperMLP()
	r := rng.New(1)
	params := make([]float64, n.ParamCount())
	n.Init(params, r, DefaultSigma)
	x := make([]float64, n.InDim())
	for i := range x {
		x[i] = r.Float64()
	}
	ws := n.NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.Forward(params, x, ws)
	}
}

func BenchmarkMLPGradBatch32(b *testing.B) {
	n := NewPaperMLP()
	r := rng.New(1)
	params := make([]float64, n.ParamCount())
	n.Init(params, r, DefaultSigma)
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(256, 1))
	ws := n.NewWorkspace()
	sampler := data.NewSampler(ds.Len(), 32, 1, 0)
	grad := make([]float64, n.ParamCount())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.BatchLossGrad(paramvec.FlatView(params), grad, ds, sampler.Next(), ws)
	}
}

func BenchmarkCNNGradBatch32(b *testing.B) {
	n := NewPaperCNN()
	r := rng.New(1)
	params := make([]float64, n.ParamCount())
	n.Init(params, r, DefaultSigma)
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(256, 1))
	ws := n.NewWorkspace()
	sampler := data.NewSampler(ds.Len(), 32, 1, 0)
	grad := make([]float64, n.ParamCount())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.BatchLossGrad(paramvec.FlatView(params), grad, ds, sampler.Next(), ws)
	}
}
