package data

import (
	"math"
	"runtime"
	"sync"

	"leashedsgd/internal/rng"
)

// SyntheticConfig controls the synthetic MNIST-like generator. The defaults
// (via DefaultSyntheticConfig) mirror MNIST's shape: 28×28 grayscale, 10
// classes, pixel values in [0,1].
type SyntheticConfig struct {
	Samples int     // number of images to generate
	H, W    int     // image size
	Classes int     // number of classes
	Seed    uint64  // generator seed; same seed -> identical dataset
	Noise   float64 // per-pixel additive Gaussian noise std-dev
	Shift   int     // max absolute translation jitter in pixels (per axis)
	Blur    float64 // stroke brush radius in pixels
}

// DefaultSyntheticConfig returns the MNIST-shaped configuration used by the
// experiments.
func DefaultSyntheticConfig(samples int, seed uint64) SyntheticConfig {
	return SyntheticConfig{
		Samples: samples,
		H:       28,
		W:       28,
		Classes: 10,
		Seed:    seed,
		Noise:   0.05,
		Shift:   2,
		Blur:    1.3,
	}
}

// classPrototype is a fixed stroke skeleton for one class: a polyline of
// control points in the unit square. Every sample of the class renders the
// same skeleton with jitter, so the classes are well separated yet the
// intra-class variation forces real feature learning (translation jitter in
// particular is what convolution layers exploit).
type classPrototype struct {
	points [][2]float64
}

// makePrototypes draws Classes distinct stroke skeletons from the seed. Each
// skeleton is a random walk of 5-8 control points biased to stay inside the
// frame, which yields blob/stroke shapes of similar ink mass to handwritten
// digits.
func makePrototypes(cfg SyntheticConfig) []classPrototype {
	r := rng.New(cfg.Seed ^ 0xda7a5e7)
	protos := make([]classPrototype, cfg.Classes)
	for c := range protos {
		n := 5 + r.Intn(4)
		pts := make([][2]float64, n)
		x, y := 0.25+0.5*r.Float64(), 0.25+0.5*r.Float64()
		for i := 0; i < n; i++ {
			pts[i] = [2]float64{x, y}
			// Step toward a fresh random anchor so strokes sweep the frame.
			ax, ay := 0.15+0.7*r.Float64(), 0.15+0.7*r.Float64()
			x += 0.55 * (ax - x)
			y += 0.55 * (ay - y)
		}
		protos[c] = classPrototype{points: pts}
	}
	return protos
}

// renderStroke rasterizes the polyline onto img (h×w, row-major) with a
// Gaussian brush of radius blur, offset by (dx, dy) pixels.
func renderStroke(img []float64, h, w int, proto classPrototype, blur float64, dx, dy float64) {
	// Walk each segment in small steps and stamp a Gaussian splat.
	inv2s2 := 1 / (2 * blur * blur)
	stamp := func(px, py float64) {
		r := int(math.Ceil(3 * blur))
		cx, cy := int(px), int(py)
		for yy := cy - r; yy <= cy+r; yy++ {
			if yy < 0 || yy >= h {
				continue
			}
			for xx := cx - r; xx <= cx+r; xx++ {
				if xx < 0 || xx >= w {
					continue
				}
				ddx, ddy := float64(xx)-px, float64(yy)-py
				v := math.Exp(-(ddx*ddx + ddy*ddy) * inv2s2)
				idx := yy*w + xx
				if img[idx] < v {
					img[idx] = v
				}
			}
		}
	}
	for i := 0; i+1 < len(proto.points); i++ {
		x0 := proto.points[i][0]*float64(w-1) + dx
		y0 := proto.points[i][1]*float64(h-1) + dy
		x1 := proto.points[i+1][0]*float64(w-1) + dx
		y1 := proto.points[i+1][1]*float64(h-1) + dy
		segLen := math.Hypot(x1-x0, y1-y0)
		steps := int(segLen*2) + 1
		for s := 0; s <= steps; s++ {
			t := float64(s) / float64(steps)
			stamp(x0+t*(x1-x0), y0+t*(y1-y0))
		}
	}
}

// GenerateSynthetic builds a synthetic MNIST-like dataset: class-balanced,
// shuffled, pixel values clamped to [0,1]. Identical configs generate
// identical datasets, so every experiment in the harness is reproducible.
//
// The output is that of one sequential pass over one stream: after the
// shuffle, row i draws its shift (two Intn), its gain (Float64) and H·W
// noise variates (NormFloat64), in that order. It is reproduced bit for bit
// in two passes. The first walks the stream alone, skipping each row's noise
// with SkipNorm, and saves the state each row's gain draw starts from. The
// second fills the rows from those states, making the calls the sequential
// pass made, on GOMAXPROCS goroutines; it starts on a chunk of rows as soon
// as the walk has passed it. A row's stroke depends only on (class, dx, dy),
// so each distinct stroke is drawn once, by the first row that needs it,
// and shared by every row that needs it until the call returns.
func GenerateSynthetic(cfg SyntheticConfig) *Dataset {
	if cfg.Samples <= 0 || cfg.H <= 0 || cfg.W <= 0 || cfg.Classes < 2 || cfg.Shift < 0 ||
		!(cfg.Blur > 0) || math.IsInf(cfg.Blur, 1) || !(cfg.Noise >= 0) || math.IsInf(cfg.Noise, 1) {
		panic("data: invalid SyntheticConfig")
	}
	protos := makePrototypes(cfg)
	r := rng.New(cfg.Seed)
	n, pix := cfg.Samples, cfg.H*cfg.W
	ds := &Dataset{
		X:       make([][]float64, n),
		Y:       make([]int, n),
		H:       cfg.H,
		W:       cfg.W,
		Classes: cfg.Classes,
	}
	order := make([]int, n)
	r.Perm(order)

	type stroke struct {
		class, dx, dy int
		once          sync.Once
		img           []float64
	}
	rows := make([]struct {
		r rng.Rand
		s *stroke
	}, n)
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rs, s := rows[i].r, rows[i].s
			s.once.Do(func() {
				s.img = make([]float64, pix)
				renderStroke(s.img, cfg.H, cfg.W, protos[s.class], cfg.Blur, float64(s.dx), float64(s.dy))
			})
			// Intensity jitter then additive noise, clamped to [0,1].
			img := make([]float64, pix)
			gain := 0.8 + 0.4*rs.Float64()
			for j := range img {
				v := s.img[j]*gain + cfg.Noise*rs.NormFloat64()
				if v < 0 {
					v = 0
				} else if v > 1 {
					v = 1
				}
				img[j] = v
			}
			ds.X[order[i]] = img
			ds.Y[order[i]] = s.class
		}
	}

	// This goroutine walks the stream and hands the rows out a chunk at a
	// time; GOMAXPROCS-1 others fill them, and this one joins once the walk
	// is done. The channel holds every chunk, so the walk never blocks.
	const chunk = 64
	nChunks := (n + chunk - 1) / chunk
	chunks := make(chan int, nChunks)
	var wg sync.WaitGroup
	drain := func() {
		for lo := range chunks {
			fill(lo, min(lo+chunk, n))
		}
	}
	for w := 1; w < min(runtime.GOMAXPROCS(0), nChunks); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	strokes := make(map[[3]int]*stroke)
	for i := range rows {
		class := i % cfg.Classes // balanced before shuffling
		dx := r.Intn(2*cfg.Shift+1) - cfg.Shift
		dy := r.Intn(2*cfg.Shift+1) - cfg.Shift
		key := [3]int{class, dx, dy}
		s := strokes[key]
		if s == nil {
			s = &stroke{class: class, dx: dx, dy: dy}
			strokes[key] = s
		}
		rows[i].r, rows[i].s = *r, s
		r.Float64()
		r.SkipNorm(pix)
		if (i+1)%chunk == 0 || i+1 == n {
			chunks <- i - i%chunk
		}
	}
	close(chunks)
	drain()
	wg.Wait()
	return ds
}

// LoadOrGenerate returns the real MNIST training set from dir when present,
// otherwise a synthetic dataset of the requested size. The bool result
// reports whether real data was used.
func LoadOrGenerate(dir string, samples int, seed uint64) (*Dataset, bool) {
	if dir != "" {
		if ds, err := LoadMNISTDir(dir); err == nil {
			if samples > 0 && samples < ds.Len() {
				ds, _ = ds.Split(samples)
			}
			return ds, true
		}
	}
	return GenerateSynthetic(DefaultSyntheticConfig(samples, seed)), false
}
