//go:build amd64 && !noasm

package tensor

// Drivers for the CNN kernels of cnn_amd64.s; the contracts are stated
// there. The callers in cnn.go have validated every shape.

// maxPool2x2 and maxPool2x2Back run the tier's pool kernels over every
// plane in one call; planes > 0.
func (t *gemmTier) maxPool2x2(out []float64, argmax []int, in []float64, planes, h, w, rs int) {
	t.pool(&out[0], &argmax[0], &in[0], planes, h/2, w/2, rs, h)
}

func (t *gemmTier) maxPool2x2Back(dIn, dOut []float64, argmax []int, planes, h, w, rs int) {
	t.poolBack(&dIn[0], &dOut[0], &argmax[0], planes, h/2, w/2, rs, h)
}

// runsParkLen is one lanes-wide partial sum per slot of an rgMF×rgMQ tile,
// for every tile of an m × q destination.
func (t *gemmTier) runsParkLen(m, q int) int {
	return (m + t.rgMF - 1) / t.rgMF * ((q + t.rgMQ - 1) / t.rgMQ) * t.rgMF * t.rgMQ * t.lanes
}

// runsGrad adds Σ_b a_b·R_bᵀ to dst. Image by image, each group of rgMF
// filter rows runs one kernel call over all its run tiles, adding every
// tile's products to the tile's parked lane partials; the image is read
// from L1 once per row group, and no partial is folded until the whole batch
// is in. The fold adds each slot's lanes in order. Park slots of the rows
// and runs an edge tile repeats are never folded.
func (t *gemmTier) runsGrad(dst []float64, ldd, m int, a []float64, lda, sa, n int, x []float64, sx int, off []int, images int, park []float64) {
	mf, mq, l := t.rgMF, t.rgMQ, t.lanes
	group := (len(off) + mq - 1) / mq * mf * mq * l
	park = park[:t.runsParkLen(m, len(off))]
	clear(park)
	for b := 0; b < images; b++ {
		for i := 0; i < m; i += mf {
			t.runsTile(&park[i/mf*group], &a[b*sa+i*lda], uintptr(lda)*8, min(mf, m-i), &x[b*sx], &off[0], len(off), n)
		}
	}
	for i := 0; i < m; i++ {
		g, r := park[i/mf*group:], i%mf
		for q := range off {
			p := g[((q/mq*mf+r)*mq+q%mq)*l:][:l]
			s := p[0]
			for _, v := range p[1:] {
				s += v
			}
			dst[i*ldd+q] += s
		}
	}
}

//go:noescape
func runsTileZMM(park, a *float64, lda uintptr, mf int, x *float64, off *int, nq, n int)

//go:noescape
func runsTileYMM(park, a *float64, lda uintptr, mf int, x *float64, off *int, nq, n int)

//go:noescape
func poolZMM(out *float64, argmax *int, in *float64, planes, outH, outW, rs, h int)

//go:noescape
func poolBackZMM(dIn, dOut *float64, argmax *int, planes, outH, outW, rs, h int)

//go:noescape
func reluZMM(out, in []float64)

//go:noescape
func reluBackZMM(dIn, in, dOut []float64)
