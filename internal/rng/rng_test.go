package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverge at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestStreamsIndependent(t *testing.T) {
	s0, s1 := NewStream(7, 0), NewStream(7, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if s0.Uint64() == s1.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 0 and 1 collide %d/100 times", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	var nonzero bool
	for i := 0; i < 10; i++ {
		if r.Uint64() != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("seed 0 generator stuck at zero")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 2000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n = 10
	const draws = 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if math.Abs(float64(c-want)) > float64(want)/10 {
			t.Errorf("bucket %d: %d draws, want ~%d", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(9)
	const draws = 200000
	var sum float64
	for i := 0; i < draws; i++ {
		sum += r.Float64()
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const draws = 200000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

// SkipNorm(n) must leave the stream exactly where n NormFloat64 calls do,
// rejected polar draws included: the generator's parallel row fill starts
// each row from the state this skip finds.
func TestSkipNormMatchesNormFloat64(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 20210517} {
		for _, n := range []int{0, 1, 2, 3, 144, 784, 10000} {
			a, b := New(seed), New(seed)
			a.Uint64() // start mid-stream, as a generator row does
			b.Uint64()
			for i := 0; i < n; i++ {
				a.NormFloat64()
			}
			b.SkipNorm(n)
			if a.s != b.s {
				t.Fatalf("seed %d, n %d: state after SkipNorm %v, after NormFloat64 %v", seed, n, b.s, a.s)
			}
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	p := make([]int, 100)
	r.Perm(p)
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			t.Fatalf("invalid permutation: element %d", v)
		}
		seen[v] = true
	}
}

func TestPermShuffles(t *testing.T) {
	r := New(19)
	p := make([]int, 50)
	r.Perm(p)
	inPlace := 0
	for i, v := range p {
		if i == v {
			inPlace++
		}
	}
	// Expected fixed points of a random permutation is 1.
	if inPlace > 10 {
		t.Fatalf("%d fixed points in 50-element shuffle, looks unshuffled", inPlace)
	}
}

// Property: mul64 agrees with big-integer multiplication on the low bits and
// on small operands where hi must be zero.
func TestMul64Property(t *testing.T) {
	f := func(a, b uint32) bool {
		hi, lo := mul64(uint64(a), uint64(b))
		return hi == 0 && lo == uint64(a)*uint64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMul64Hi(t *testing.T) {
	hi, lo := mul64(1<<63, 2)
	if hi != 1 || lo != 0 {
		t.Fatalf("mul64(2^63,2) = (%d,%d), want (1,0)", hi, lo)
	}
	hi, lo = mul64(^uint64(0), ^uint64(0))
	// (2^64-1)^2 = 2^128 - 2^65 + 1 -> hi = 2^64-2, lo = 1
	if hi != ^uint64(0)-1 || lo != 1 {
		t.Fatalf("mul64(max,max) = (%d,%d)", hi, lo)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}
