// Package metrics provides the instrumentation the evaluation needs:
// integer histograms for staleness distributions (Fig. 6/7), box-plot
// statistics over repeated trials (every convergence-rate figure), loss/time
// traces (Fig. 5), and duration samplers for the Tc/Tu measurements (Fig. 9).
//
// Histograms are per-worker and merged after the run, so the instrumentation
// adds no cross-thread traffic to the synchronization behaviour being
// measured.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Hist is a bounded integer histogram. Values above the bound accumulate in
// the overflow bucket. Not safe for concurrent use — one per worker, merged
// with Merge.
type Hist struct {
	buckets  []int64
	overflow int64
	count    int64
	sum      int64
	max      int64
}

// NewHist returns a histogram covering values 0..bound-1.
func NewHist(bound int) *Hist {
	if bound <= 0 {
		bound = 1
	}
	return &Hist{buckets: make([]int64, bound)}
}

// Observe records one value (negative values clamp to 0).
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if v >= int64(len(h.buckets)) {
		h.overflow++
	} else {
		h.buckets[v]++
	}
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Merge adds other's observations into h. Bucket bounds must match.
func (h *Hist) Merge(other *Hist) {
	if len(other.buckets) != len(h.buckets) {
		panic("metrics: merging histograms with different bounds")
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.overflow += other.overflow
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Count returns the number of observations.
func (h *Hist) Count() int64 { return h.count }

// Bound returns the histogram's bucket bound (values ≥ Bound overflow).
func (h *Hist) Bound() int { return len(h.buckets) }

// Mean returns the mean observed value (0 when empty).
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the largest observed value.
func (h *Hist) Max() int64 { return h.max }

// Bucket returns the count for value v (overflow excluded).
func (h *Hist) Bucket(v int) int64 {
	if v < 0 || v >= len(h.buckets) {
		return 0
	}
	return h.buckets[v]
}

// Overflow returns the count of observations at or above the bound.
func (h *Hist) Overflow() int64 { return h.overflow }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the observed distribution,
// attributing overflow mass to the bound value.
func (h *Hist) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	target := int64(q * float64(h.count-1))
	var cum int64
	for v, c := range h.buckets {
		cum += c
		if cum > target {
			return int64(v)
		}
	}
	return int64(len(h.buckets))
}

// String renders a compact ASCII bar chart of the non-empty range.
func (h *Hist) String() string {
	if h.count == 0 {
		return "(empty histogram)"
	}
	hi := int(h.max)
	if hi >= len(h.buckets) {
		hi = len(h.buckets) - 1
	}
	var peak int64 = 1
	for v := 0; v <= hi; v++ {
		if h.buckets[v] > peak {
			peak = h.buckets[v]
		}
	}
	var b strings.Builder
	for v := 0; v <= hi; v++ {
		c := h.buckets[v]
		if c == 0 {
			continue
		}
		bar := int(40 * c / peak)
		fmt.Fprintf(&b, "%4d | %-40s %d\n", v, strings.Repeat("#", bar), c)
	}
	if h.overflow > 0 {
		fmt.Fprintf(&b, "  ≥%d | %d (overflow)\n", len(h.buckets), h.overflow)
	}
	return b.String()
}

// BoxStats summarizes repeated-trial measurements the way the paper's box
// plots do: quartiles, min/max whiskers, and 1.5·IQR outliers.
type BoxStats struct {
	N                int
	Min, Q1, Med, Q3 float64
	Max              float64
	Mean             float64
	Outliers         []float64
}

// NewBoxStats computes the summary of vals. NaNs are ignored.
func NewBoxStats(vals []float64) BoxStats {
	clean := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsNaN(v) {
			clean = append(clean, v)
		}
	}
	bs := BoxStats{N: len(clean)}
	if bs.N == 0 {
		bs.Min, bs.Q1, bs.Med, bs.Q3, bs.Max = math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()
		bs.Mean = math.NaN()
		return bs
	}
	sort.Float64s(clean)
	bs.Min, bs.Max = clean[0], clean[bs.N-1]
	bs.Q1 = quantileSorted(clean, 0.25)
	bs.Med = quantileSorted(clean, 0.5)
	bs.Q3 = quantileSorted(clean, 0.75)
	var sum float64
	for _, v := range clean {
		sum += v
	}
	bs.Mean = sum / float64(bs.N)
	iqr := bs.Q3 - bs.Q1
	lo, hi := bs.Q1-1.5*iqr, bs.Q3+1.5*iqr
	for _, v := range clean {
		if v < lo || v > hi {
			bs.Outliers = append(bs.Outliers, v)
		}
	}
	return bs
}

// quantileSorted linearly interpolates the q-quantile of sorted vals.
func quantileSorted(vals []float64, q float64) float64 {
	if len(vals) == 1 {
		return vals[0]
	}
	pos := q * float64(len(vals)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(vals) {
		return vals[len(vals)-1]
	}
	return vals[lo]*(1-frac) + vals[lo+1]*frac
}

// String renders "med [q1,q3] (min..max) n=N".
func (b BoxStats) String() string {
	if b.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("med=%.3g [%.3g,%.3g] (%.3g..%.3g) n=%d",
		b.Med, b.Q1, b.Q3, b.Min, b.Max, b.N)
}

// TracePoint is one loss observation during training (Fig. 5-style series).
type TracePoint struct {
	Elapsed time.Duration
	Updates int64
	Loss    float64
}

// Trace is an append-only series of TracePoints recorded by the run monitor.
type Trace struct {
	Points []TracePoint
}

// Add appends a point.
func (t *Trace) Add(elapsed time.Duration, updates int64, loss float64) {
	t.Points = append(t.Points, TracePoint{Elapsed: elapsed, Updates: updates, Loss: loss})
}

// FirstBelow returns the first point whose loss is below target, or nil.
func (t *Trace) FirstBelow(target float64) *TracePoint {
	for i := range t.Points {
		if t.Points[i].Loss <= target {
			return &t.Points[i]
		}
	}
	return nil
}

// DurationSampler accumulates duration observations (Tc/Tu, Fig. 9).
// Not safe for concurrent use — one per worker, merged at the end.
type DurationSampler struct {
	samples []time.Duration
}

// Observe records one duration.
func (d *DurationSampler) Observe(v time.Duration) { d.samples = append(d.samples, v) }

// Merge appends other's samples.
func (d *DurationSampler) Merge(other *DurationSampler) {
	d.samples = append(d.samples, other.samples...)
}

// Count returns the number of samples.
func (d *DurationSampler) Count() int { return len(d.samples) }

// Stats returns box statistics over the samples in milliseconds.
func (d *DurationSampler) Stats() BoxStats {
	ms := make([]float64, len(d.samples))
	for i, s := range d.samples {
		ms[i] = float64(s) / float64(time.Millisecond)
	}
	return NewBoxStats(ms)
}

// Mean returns the mean sample duration.
func (d *DurationSampler) Mean() time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range d.samples {
		sum += s
	}
	return sum / time.Duration(len(d.samples))
}
