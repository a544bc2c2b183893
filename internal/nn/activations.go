package nn

import (
	"fmt"
	"math"
	"sync/atomic"

	"leashedsgd/internal/rng"
	"leashedsgd/internal/tensor"
)

// Sigmoid applies 1/(1+e^{-x}) element-wise. The paper's architectures use
// ReLU, but the layer zoo carries the classical activations so the framework
// generalizes beyond the two benchmark networks.
type Sigmoid struct {
	Dim int
}

// NewSigmoid returns a Sigmoid over dim elements.
func NewSigmoid(dim int) *Sigmoid {
	if dim <= 0 {
		panic("nn: Sigmoid dimension must be positive")
	}
	return &Sigmoid{Dim: dim}
}

func (s *Sigmoid) InDim() int      { return s.Dim }
func (s *Sigmoid) OutDim() int     { return s.Dim }
func (s *Sigmoid) ParamCount() int { return 0 }
func (s *Sigmoid) NewScratch() any { return nil }
func (s *Sigmoid) Name() string    { return fmt.Sprintf("Sigmoid(%d)", s.Dim) }

func sigmoidForward(in, out []float64) {
	for i, v := range in {
		out[i] = 1 / (1 + math.Exp(-v))
	}
}

func sigmoidBackward(out, dOut, dIn []float64) {
	for i, y := range out {
		dIn[i] = dOut[i] * y * (1 - y)
	}
}

func (s *Sigmoid) Forward(_, in, out []float64, _ any) { sigmoidForward(in, out) }

// Backward uses σ'(x) = σ(x)(1−σ(x)), reading σ(x) from the recorded output.
func (s *Sigmoid) Backward(_, _, _, out, dOut, dIn []float64, _ any) {
	if dIn == nil {
		return
	}
	sigmoidBackward(out, dOut, dIn)
}

func (s *Sigmoid) NewBatchScratch(int) any { return nil }

func (s *Sigmoid) ForwardBatch(_ []float64, in, out tensor.Mat, _ any) {
	sigmoidForward(in.Data, out.Data)
}

func (s *Sigmoid) BackwardBatch(_, _ []float64, _, out, dOut, dIn tensor.Mat, _ any) {
	if dIn.Data == nil {
		return
	}
	sigmoidBackward(out.Data, dOut.Data, dIn.Data)
}

// Tanh applies the hyperbolic tangent element-wise.
type Tanh struct {
	Dim int
}

// NewTanh returns a Tanh over dim elements.
func NewTanh(dim int) *Tanh {
	if dim <= 0 {
		panic("nn: Tanh dimension must be positive")
	}
	return &Tanh{Dim: dim}
}

func (t *Tanh) InDim() int      { return t.Dim }
func (t *Tanh) OutDim() int     { return t.Dim }
func (t *Tanh) ParamCount() int { return 0 }
func (t *Tanh) NewScratch() any { return nil }
func (t *Tanh) Name() string    { return fmt.Sprintf("Tanh(%d)", t.Dim) }

func tanhForward(in, out []float64) {
	for i, v := range in {
		out[i] = math.Tanh(v)
	}
}

func tanhBackward(out, dOut, dIn []float64) {
	for i, y := range out {
		dIn[i] = dOut[i] * (1 - y*y)
	}
}

func (t *Tanh) Forward(_, in, out []float64, _ any) { tanhForward(in, out) }

// Backward uses tanh'(x) = 1 − tanh²(x).
func (t *Tanh) Backward(_, _, _, out, dOut, dIn []float64, _ any) {
	if dIn == nil {
		return
	}
	tanhBackward(out, dOut, dIn)
}

func (t *Tanh) NewBatchScratch(int) any { return nil }

func (t *Tanh) ForwardBatch(_ []float64, in, out tensor.Mat, _ any) {
	tanhForward(in.Data, out.Data)
}

func (t *Tanh) BackwardBatch(_, _ []float64, _, out, dOut, dIn tensor.Mat, _ any) {
	if dIn.Data == nil {
		return
	}
	tanhBackward(out.Data, dOut.Data, dIn.Data)
}

// dropoutSeedCounter hands every Dropout scratch its own RNG stream, so
// concurrent workers draw independent masks without coordination.
var dropoutSeedCounter atomic.Uint64

// Dropout randomly zeroes each input with probability Rate during training
// and scales survivors by 1/(1−Rate) (inverted dropout, so evaluation needs
// no rescaling). The paper lists dropout among the hyper-parameters DL
// tuning must cover (Sec. I); it is available here as an extension and not
// used by the Table II/III reproduction architectures.
//
// NOTE: the mask is drawn per Forward call and recorded in the scratch, so
// Backward must be called before the next Forward on the same workspace —
// the invariant the Network training loop maintains. Inside a Network the
// mode follows the entry point: the gradient passes (LossGrad,
// BatchLossGrad) mask, every inference and evaluation pass (Forward*,
// Evaluate, Loss, Accuracy) is the identity.
type Dropout struct {
	Dim  int
	Rate float64
	// Eval disables masking (identity) in the gradient passes too.
	Eval bool
}

// NewDropout returns a Dropout layer with the given zeroing probability.
func NewDropout(dim int, rate float64) *Dropout {
	if dim <= 0 || rate < 0 || rate >= 1 {
		panic("nn: invalid Dropout configuration")
	}
	return &Dropout{Dim: dim, Rate: rate}
}

func (d *Dropout) InDim() int      { return d.Dim }
func (d *Dropout) OutDim() int     { return d.Dim }
func (d *Dropout) ParamCount() int { return 0 }
func (d *Dropout) Name() string    { return fmt.Sprintf("Dropout(%d,%.2f)", d.Dim, d.Rate) }

type dropoutScratch struct {
	rnd  *rng.Rand
	mask []bool
	// eval is the owning Network's mode switch (setDropoutEval); a scratch
	// used directly on the layer masks.
	eval bool
}

// identity reports whether this pass leaves its input untouched.
func (d *Dropout) identity(scratch any) bool {
	return d.Eval || d.Rate == 0 || scratch.(*dropoutScratch).eval
}

func (d *Dropout) NewScratch() any {
	return &dropoutScratch{
		rnd:  rng.New(0xd20b07 ^ dropoutSeedCounter.Add(1)*0x9e3779b97f4a7c15),
		mask: make([]bool, d.Dim),
	}
}

func (d *Dropout) Forward(_, in, out []float64, scratch any) {
	if d.identity(scratch) {
		copy(out, in)
		return
	}
	s := scratch.(*dropoutScratch)
	scale := 1 / (1 - d.Rate)
	for i, v := range in {
		if s.rnd.Float64() < d.Rate {
			s.mask[i] = false
			out[i] = 0
		} else {
			s.mask[i] = true
			out[i] = v * scale
		}
	}
}

func (d *Dropout) Backward(_, _, _, _, dOut, dIn []float64, scratch any) {
	if dIn == nil {
		return
	}
	if d.identity(scratch) {
		copy(dIn, dOut)
		return
	}
	s := scratch.(*dropoutScratch)
	scale := 1 / (1 - d.Rate)
	for i := range dIn {
		if s.mask[i] {
			dIn[i] = dOut[i] * scale
		} else {
			dIn[i] = 0
		}
	}
}

// NewBatchScratch sizes the mask for a whole minibatch (batch × Dim); the
// batched kernels draw one mask per batch element per Forward, preserving
// the Forward-then-Backward pairing contract of the per-example path.
func (d *Dropout) NewBatchScratch(batch int) any {
	return &dropoutScratch{
		rnd:  rng.New(0xd20b07 ^ dropoutSeedCounter.Add(1)*0x9e3779b97f4a7c15),
		mask: make([]bool, batch*d.Dim),
	}
}

func (d *Dropout) ForwardBatch(_ []float64, in, out tensor.Mat, scratch any) {
	if d.identity(scratch) {
		copy(out.Data, in.Data)
		return
	}
	s := scratch.(*dropoutScratch)
	scale := 1 / (1 - d.Rate)
	for i, v := range in.Data {
		if s.rnd.Float64() < d.Rate {
			s.mask[i] = false
			out.Data[i] = 0
		} else {
			s.mask[i] = true
			out.Data[i] = v * scale
		}
	}
}

func (d *Dropout) BackwardBatch(_, _ []float64, _, _, dOut, dIn tensor.Mat, scratch any) {
	if dIn.Data == nil {
		return
	}
	if d.identity(scratch) {
		copy(dIn.Data, dOut.Data)
		return
	}
	s := scratch.(*dropoutScratch)
	scale := 1 / (1 - d.Rate)
	for i := range dIn.Data {
		if s.mask[i] {
			dIn.Data[i] = dOut.Data[i] * scale
		} else {
			dIn.Data[i] = 0
		}
	}
}

// InitHe fills params with the He/Kaiming fan-in initialization
// (σ = √(2/fanIn) per Dense/Conv block), the modern alternative to the
// paper's N(0, 0.01) — exposed so step-size sweeps can separate
// initialization effects from synchronization effects.
func (n *Network) InitHe(params []float64, r *rng.Rand) {
	if len(params) != n.d {
		panic("nn: InitHe params length mismatch")
	}
	for i, l := range n.layers {
		block := n.layerParams(params, i)
		if len(block) == 0 {
			continue
		}
		sigma := math.Sqrt(2 / float64(l.InDim()))
		for j := range block {
			block[j] = sigma * r.NormFloat64()
		}
	}
}
