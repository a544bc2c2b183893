//go:build amd64 && !noasm

package tensor

import (
	"testing"

	"leashedsgd/internal/rng"
)

// TestCNNKernelTier drives the CNN kernels of every tier of the table, not
// only the selected one, through the checks of cnn_test.go: the pool and
// ReLU bit for bit against their Go bodies and the filter-gradient tile to
// 1e-13 against plain dots. A tier the host lacks skips by name, and a
// tier without a pool or ReLU kernel says that it runs the Go body.
func TestCNNKernelTier(t *testing.T) {
	for _, tier := range gemmTiers {
		t.Run(tier.name, func(t *testing.T) {
			if !tier.supported(hostCPU) {
				t.Skipf("tier %s not supported by this CPU/OS: UNTESTED here", tier.name)
			}
			if tier.pool != nil {
				checkPoolKernels(t, tier.maxPool2x2, tier.maxPool2x2Back)
			} else {
				t.Logf("tier %s has no pool kernel: the Go body runs", tier.name)
			}
			if tier.relu != nil {
				checkReLU(t, tier.relu, tier.reluBack)
			} else {
				t.Logf("tier %s has no ReLU kernel: the Go body runs", tier.name)
			}
			checkRunsGrad(t, tier.runsGrad, tier.runsParkLen)
		})
	}
}

// TestMatMulABTRunsSumShortPark: a park shorter than RunsParkLen is
// rejected before the kernels write past it.
func TestMatMulABTRunsSumShortPark(t *testing.T) {
	if RunsParkLen(2, 2) == 0 {
		t.Skip("the portable kernels need no park")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MatMulABTRunsSum(NewMat(2, 2), NewMat(1, 8), 4, NewMat(1, 9), []int{0, 1}, make([]float64, RunsParkLen(2, 2)-1))
}

// BenchmarkRunsGradTier times every tier's filter gradient on the paper
// CNN's two convolutions over a b = 32 minibatch (dOut planes at the
// input's row width, as Conv2D lays them out), so the AVX2 kernel can be
// timed on an AVX-512 host too.
func BenchmarkRunsGradTier(b *testing.B) {
	const images = 32
	r := rng.New(1)
	for _, c := range []struct {
		name                       string
		channels, h, w, filters, k int
	}{{"conv1", 1, 28, 28, 4, 3}, {"conv2", 4, 13, 13, 8, 3}} {
		off, n := convRuns(c.channels, c.h, c.w, c.k)
		sx, lda := c.channels*c.h*c.w, (c.h-c.k+1)*c.w
		a := randVec(r, images*c.filters*lda, false)
		x := randVec(r, images*sx, false)
		dst := make([]float64, c.filters*len(off))
		for _, tier := range gemmTiers {
			b.Run(c.name+"/"+tier.name, func(b *testing.B) {
				if !tier.supported(hostCPU) {
					b.Skipf("tier %s not supported by this CPU/OS", tier.name)
				}
				park := make([]float64, tier.runsParkLen(c.filters, len(off)))
				for range b.N {
					clear(dst)
					tier.runsGrad(dst, len(off), c.filters, a, lda, c.filters*lda, n, x, sx, off, images, park)
				}
			})
		}
	}
}
