package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistBasic(t *testing.T) {
	h := NewHist(10)
	for _, v := range []int64{1, 1, 2, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Bucket(1) != 2 || h.Bucket(2) != 1 || h.Bucket(5) != 1 {
		t.Fatalf("buckets wrong: %v %v %v", h.Bucket(1), h.Bucket(2), h.Bucket(5))
	}
	if h.Max() != 5 {
		t.Fatalf("Max = %d", h.Max())
	}
	if got := h.Mean(); got != 2.25 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestHistOverflowAndClamp(t *testing.T) {
	h := NewHist(4)
	h.Observe(100)
	h.Observe(-3)
	if h.Overflow() != 1 {
		t.Fatalf("Overflow = %d", h.Overflow())
	}
	if h.Bucket(0) != 1 {
		t.Fatalf("negative clamp: bucket 0 = %d", h.Bucket(0))
	}
}

func TestHistMerge(t *testing.T) {
	a, b := NewHist(8), NewHist(8)
	a.Observe(1)
	b.Observe(1)
	b.Observe(7)
	a.Merge(b)
	if a.Count() != 3 || a.Bucket(1) != 2 || a.Bucket(7) != 1 {
		t.Fatalf("merge wrong: count=%d", a.Count())
	}
	if a.Max() != 7 {
		t.Fatalf("merged max = %d", a.Max())
	}
}

func TestHistMergeBoundMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHist(4).Merge(NewHist(5))
}

func TestHistQuantile(t *testing.T) {
	h := NewHist(100)
	for v := int64(0); v < 100; v++ {
		h.Observe(v)
	}
	if q := h.Quantile(0.5); q < 48 || q > 51 {
		t.Fatalf("median = %d", q)
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("q0 = %d", q)
	}
	if q := h.Quantile(1); q != 99 {
		t.Fatalf("q1 = %d", q)
	}
}

func TestHistQuantileEmpty(t *testing.T) {
	if NewHist(4).Quantile(0.5) != 0 {
		t.Fatal("empty quantile not 0")
	}
}

func TestHistString(t *testing.T) {
	h := NewHist(10)
	h.Observe(2)
	h.Observe(2)
	h.Observe(11)
	s := h.String()
	if !strings.Contains(s, "2 |") || !strings.Contains(s, "overflow") {
		t.Fatalf("String = %q", s)
	}
	if NewHist(4).String() != "(empty histogram)" {
		t.Fatal("empty histogram render")
	}
}

// Property: histogram mean equals arithmetic mean of clamped inputs.
func TestHistMeanProperty(t *testing.T) {
	f := func(raw []int16) bool {
		h := NewHist(1 << 14)
		var sum, n int64
		for _, v := range raw {
			x := int64(v)
			h.Observe(x)
			if x < 0 {
				x = 0
			}
			sum += x
			n++
		}
		if n == 0 {
			return h.Mean() == 0
		}
		return math.Abs(h.Mean()-float64(sum)/float64(n)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBoxStatsKnown(t *testing.T) {
	bs := NewBoxStats([]float64{1, 2, 3, 4, 5})
	if bs.N != 5 || bs.Min != 1 || bs.Max != 5 || bs.Med != 3 {
		t.Fatalf("BoxStats = %+v", bs)
	}
	if bs.Q1 != 2 || bs.Q3 != 4 {
		t.Fatalf("quartiles = %v %v", bs.Q1, bs.Q3)
	}
	if bs.Mean != 3 {
		t.Fatalf("mean = %v", bs.Mean)
	}
}

func TestBoxStatsOutliers(t *testing.T) {
	vals := []float64{10, 11, 12, 13, 14, 100}
	bs := NewBoxStats(vals)
	if len(bs.Outliers) != 1 || bs.Outliers[0] != 100 {
		t.Fatalf("outliers = %v", bs.Outliers)
	}
}

func TestBoxStatsIgnoresNaN(t *testing.T) {
	bs := NewBoxStats([]float64{1, math.NaN(), 3})
	if bs.N != 2 || bs.Min != 1 || bs.Max != 3 {
		t.Fatalf("BoxStats with NaN = %+v", bs)
	}
}

func TestBoxStatsEmpty(t *testing.T) {
	bs := NewBoxStats(nil)
	if bs.N != 0 || !math.IsNaN(bs.Med) {
		t.Fatalf("empty BoxStats = %+v", bs)
	}
	if bs.String() != "n=0" {
		t.Fatalf("String = %q", bs.String())
	}
}

func TestBoxStatsSingle(t *testing.T) {
	bs := NewBoxStats([]float64{7})
	if bs.Min != 7 || bs.Q1 != 7 || bs.Med != 7 || bs.Q3 != 7 || bs.Max != 7 {
		t.Fatalf("single BoxStats = %+v", bs)
	}
}

// Property: Min ≤ Q1 ≤ Med ≤ Q3 ≤ Max for any input.
func TestBoxStatsOrderingProperty(t *testing.T) {
	f := func(vals []float64) bool {
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		bs := NewBoxStats(clean)
		return bs.Min <= bs.Q1 && bs.Q1 <= bs.Med && bs.Med <= bs.Q3 && bs.Q3 <= bs.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTraceFirstBelow(t *testing.T) {
	var tr Trace
	tr.Add(time.Second, 10, 2.0)
	tr.Add(2*time.Second, 20, 1.0)
	tr.Add(3*time.Second, 30, 0.5)
	p := tr.FirstBelow(1.0)
	if p == nil || p.Updates != 20 {
		t.Fatalf("FirstBelow = %+v", p)
	}
	if tr.FirstBelow(0.1) != nil {
		t.Fatal("FirstBelow(0.1) should be nil")
	}
}

func TestDurationSampler(t *testing.T) {
	var d DurationSampler
	d.Observe(10 * time.Millisecond)
	d.Observe(20 * time.Millisecond)
	if d.Count() != 2 {
		t.Fatalf("Count = %d", d.Count())
	}
	if d.Mean() != 15*time.Millisecond {
		t.Fatalf("Mean = %v", d.Mean())
	}
	var e DurationSampler
	e.Observe(30 * time.Millisecond)
	d.Merge(&e)
	if d.Count() != 3 || d.Mean() != 20*time.Millisecond {
		t.Fatalf("after merge: count=%d mean=%v", d.Count(), d.Mean())
	}
	st := d.Stats()
	if st.N != 3 || st.Med != 20 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestDurationSamplerEmpty(t *testing.T) {
	var d DurationSampler
	if d.Mean() != 0 {
		t.Fatal("empty mean != 0")
	}
}
