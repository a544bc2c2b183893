package data

import (
	"bytes"
	"math"
	"os"
	"testing"
)

func TestIDXImagesRoundTrip(t *testing.T) {
	images := [][]float64{
		{0, 0.5, 1, 0.25},
		{1, 1, 0, 0},
	}
	var buf bytes.Buffer
	if err := WriteIDXImages(&buf, images, 2, 2); err != nil {
		t.Fatal(err)
	}
	got, h, w, err := ReadIDXImages(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h != 2 || w != 2 || len(got) != 2 {
		t.Fatalf("shape = %d %dx%d", len(got), h, w)
	}
	for i := range images {
		for j := range images[i] {
			if math.Abs(got[i][j]-images[i][j]) > 1.0/255 {
				t.Fatalf("pixel (%d,%d) = %v, want ~%v", i, j, got[i][j], images[i][j])
			}
		}
	}
}

func TestIDXImagesClamping(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteIDXImages(&buf, [][]float64{{-0.5, 2.0}}, 1, 2); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := ReadIDXImages(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != 0 || got[0][1] != 1 {
		t.Fatalf("clamped pixels = %v, want [0 1]", got[0])
	}
}

func TestIDXImagesBadSize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteIDXImages(&buf, [][]float64{{1, 2, 3}}, 2, 2); err == nil {
		t.Fatal("mismatched image size accepted")
	}
}

func TestIDXLabelsRoundTrip(t *testing.T) {
	labels := []int{0, 1, 9, 255}
	var buf bytes.Buffer
	if err := WriteIDXLabels(&buf, labels); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIDXLabels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(labels) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range labels {
		if got[i] != labels[i] {
			t.Fatalf("label %d = %d, want %d", i, got[i], labels[i])
		}
	}
}

func TestIDXLabelsOutOfRange(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteIDXLabels(&buf, []int{300}); err == nil {
		t.Fatal("out-of-range label accepted")
	}
}

func TestReadIDXRejectsBadMagic(t *testing.T) {
	if _, _, _, err := ReadIDXImages(bytes.NewReader([]byte{1, 2, 3, 4, 0, 0, 0, 0})); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadIDXLabels(bytes.NewReader([]byte{0, 0, 8, 3, 0, 0, 0, 0})); err == nil {
		t.Fatal("IDX3 magic accepted as IDX1")
	}
}

func TestReadIDXTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteIDXImages(&buf, [][]float64{{0, 0, 0, 0}}, 2, 2); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, _, _, err := ReadIDXImages(bytes.NewReader(b[:len(b)-2])); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestGenerateSyntheticShape(t *testing.T) {
	ds := GenerateSynthetic(DefaultSyntheticConfig(100, 7))
	if ds.Len() != 100 || ds.H != 28 || ds.W != 28 || ds.Classes != 10 {
		t.Fatalf("unexpected dataset shape: %d %dx%d %d classes", ds.Len(), ds.H, ds.W, ds.Classes)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateSyntheticPixelRange(t *testing.T) {
	ds := GenerateSynthetic(DefaultSyntheticConfig(50, 3))
	for i, img := range ds.X {
		for j, p := range img {
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("sample %d pixel %d = %v out of [0,1]", i, j, p)
			}
		}
	}
}

func TestGenerateSyntheticDeterministic(t *testing.T) {
	a := GenerateSynthetic(DefaultSyntheticConfig(40, 11))
	b := GenerateSynthetic(DefaultSyntheticConfig(40, 11))
	for i := range a.X {
		if a.Y[i] != b.Y[i] {
			t.Fatalf("labels differ at %d", i)
		}
		for j := range a.X[i] {
			if a.X[i][j] != b.X[i][j] {
				t.Fatalf("pixels differ at sample %d pixel %d", i, j)
			}
		}
	}
}

func TestGenerateSyntheticSeedsDiffer(t *testing.T) {
	a := GenerateSynthetic(DefaultSyntheticConfig(10, 1))
	b := GenerateSynthetic(DefaultSyntheticConfig(10, 2))
	same := true
	for i := range a.X {
		for j := range a.X[i] {
			if a.X[i][j] != b.X[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestGenerateSyntheticClassBalance(t *testing.T) {
	ds := GenerateSynthetic(DefaultSyntheticConfig(200, 5))
	counts := make([]int, ds.Classes)
	for _, y := range ds.Y {
		counts[y]++
	}
	for c, n := range counts {
		if n != 20 {
			t.Fatalf("class %d has %d samples, want 20", c, n)
		}
	}
}

// Classes must be visually distinct: mean images of different classes should
// differ substantially more than mean images of the same class across
// disjoint halves. This is the learnability guarantee the training
// experiments rely on.
func TestGenerateSyntheticClassSeparation(t *testing.T) {
	ds := GenerateSynthetic(DefaultSyntheticConfig(400, 9))
	dim := ds.Dim()
	means := make([][]float64, ds.Classes)
	counts := make([]int, ds.Classes)
	for c := range means {
		means[c] = make([]float64, dim)
	}
	for i, img := range ds.X {
		c := ds.Y[i]
		counts[c]++
		for j, p := range img {
			means[c][j] += p
		}
	}
	for c := range means {
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	dist := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return math.Sqrt(s)
	}
	minInter := math.Inf(1)
	for a := 0; a < ds.Classes; a++ {
		for b := a + 1; b < ds.Classes; b++ {
			if d := dist(means[a], means[b]); d < minInter {
				minInter = d
			}
		}
	}
	if minInter < 0.5 {
		t.Fatalf("closest class-mean distance %v — classes not separable", minInter)
	}
}

func TestDatasetSplit(t *testing.T) {
	ds := GenerateSynthetic(DefaultSyntheticConfig(100, 1))
	train, test := ds.Split(80)
	if train.Len() != 80 || test.Len() != 20 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	train2, test2 := ds.Split(1000)
	if train2.Len() != 100 || test2.Len() != 0 {
		t.Fatalf("oversized split %d/%d", train2.Len(), test2.Len())
	}
}

func TestValidateCatchesBadLabel(t *testing.T) {
	ds := &Dataset{X: [][]float64{{0}}, Y: []int{5}, H: 1, W: 1, Classes: 2}
	if err := ds.Validate(); err == nil {
		t.Fatal("out-of-range label passed validation")
	}
}

func TestValidateCatchesLengthMismatch(t *testing.T) {
	ds := &Dataset{X: [][]float64{{0}}, Y: []int{0, 1}, H: 1, W: 1, Classes: 2}
	if err := ds.Validate(); err == nil {
		t.Fatal("length mismatch passed validation")
	}
}

func TestSamplerBounds(t *testing.T) {
	s := NewSampler(50, 8, 1, 0)
	for trial := 0; trial < 100; trial++ {
		b := s.Next()
		if len(b.Indices) != 8 {
			t.Fatalf("batch size %d", len(b.Indices))
		}
		for _, idx := range b.Indices {
			if idx < 0 || idx >= 50 {
				t.Fatalf("index %d out of range", idx)
			}
		}
	}
}

func TestSamplerWorkerStreamsDiffer(t *testing.T) {
	a := NewSampler(1000, 16, 1, 0)
	b := NewSampler(1000, 16, 1, 1)
	ba, bb := a.Next(), b.Next()
	same := 0
	for i := range ba.Indices {
		if ba.Indices[i] == bb.Indices[i] {
			same++
		}
	}
	if same == len(ba.Indices) {
		t.Fatal("two workers drew identical batches")
	}
}

func TestSamplerCoverage(t *testing.T) {
	// With replacement over 20 items, 600 draws should touch everything.
	s := NewSampler(20, 10, 2, 0)
	seen := make(map[int]bool)
	for trial := 0; trial < 60; trial++ {
		for _, idx := range s.Next().Indices {
			seen[idx] = true
		}
	}
	if len(seen) != 20 {
		t.Fatalf("only %d/20 samples ever drawn", len(seen))
	}
}

func TestLoadOrGenerateFallsBack(t *testing.T) {
	ds, real := LoadOrGenerate("/nonexistent-dir", 30, 4)
	if real {
		t.Fatal("claimed to load real MNIST from a nonexistent dir")
	}
	if ds.Len() != 30 {
		t.Fatalf("generated %d samples, want 30", ds.Len())
	}
}

func TestLoadMNISTDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := GenerateSynthetic(DefaultSyntheticConfig(25, 6))
	var imgBuf, lblBuf bytes.Buffer
	if err := WriteIDXImages(&imgBuf, src.X, src.H, src.W); err != nil {
		t.Fatal(err)
	}
	if err := WriteIDXLabels(&lblBuf, src.Y); err != nil {
		t.Fatal(err)
	}
	writeFile(t, dir+"/train-images-idx3-ubyte", imgBuf.Bytes())
	writeFile(t, dir+"/train-labels-idx1-ubyte", lblBuf.Bytes())
	ds, err := LoadMNISTDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 25 || ds.H != 28 || ds.W != 28 {
		t.Fatalf("loaded shape %d %dx%d", ds.Len(), ds.H, ds.W)
	}
	for i := range ds.Y {
		if ds.Y[i] != src.Y[i] {
			t.Fatalf("label %d mismatch", i)
		}
	}
}

// BenchmarkGenerateSynthetic times the 8192-row pool a dense bench workload
// generates at set-up (bench/workloads.go), seed included.
func BenchmarkGenerateSynthetic(b *testing.B) {
	cfg := DefaultSyntheticConfig(8192, 20210517)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = GenerateSynthetic(cfg)
	}
}

func BenchmarkSamplerNext(b *testing.B) {
	s := NewSampler(60000, 512, 1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Next()
	}
}

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}
