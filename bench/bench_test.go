package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianPercentile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 100, 5},
		{[]float64{1, 2, 3, 4, 5}, 90, 4.6},
		{[]float64{7}, 99, 7},
	} {
		if got := percentile(c.xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

// The highest reportable percentile is the one with at least ten samples
// beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := highestPercentile(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

// quartileSpread must agree with Python's statistics.quantiles(xs, n=4),
// which is what the driver computes.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread of 1..10 = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 20], n=4) = [7.5, 15.0, 22.5]
	if got, want := quartileSpread([]float64{20, 10}), (22.5-7.5)/15; !near(got, want) {
		t.Errorf("spread of two values = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) = [1.5, 4.0, 12.0]
	if got, want := quartileSpread([]float64{16, 1, 4, 2, 8}), (12.0-1.5)/4; !near(got, want) {
		t.Errorf("spread of powers of two = %v, want %v", got, want)
	}
	if quartileSpread([]float64{5}) != 0 {
		t.Error("one value has no spread")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Nested: a child with its own child.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a.inner", Start: 15, End: 25},
		// Two children that overlap each other between 50 and 60.
		{ID: 4, Parent: 1, Name: "b", Start: 45, End: 60},
		{ID: 5, Parent: 1, Name: "c", Start: 50, End: 70},
		// A child that runs past its parent's end is clipped to it.
		{ID: 6, Parent: 1, Name: "d", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	// root is covered on [10,40) ∪ [45,70) ∪ [90,100) = 65 of 100.
	for name, want := range map[string]int64{"root": 35, "a": 20, "a.inner": 10, "b": 15, "c": 20, "d": 30} {
		if self[name] != want {
			t.Errorf("self time of %s = %d, want %d", name, self[name], want)
		}
	}
}

func TestRecorder(t *testing.T) {
	var none *recorder
	none.begin("x") // a nil recorder is the untraced path
	none.end(0)
	r := newRecorder(0, time.Now())
	r.begin("iter")
	r.begin("child")
	r.end(3)
	r.end(1)
	r.begin("iter")
	r.end(1)
	s := r.spans
	if len(s) != 3 || s[1].Parent != s[0].ID || s[1].Run != s[0].ID || s[1].N != 3 {
		t.Fatalf("nesting wrong: %+v", s)
	}
	if s[2].Parent != 0 || s[2].Run != s[2].ID || s[2].Run == s[0].Run {
		t.Errorf("second root should start its own run: %+v", s[2])
	}
	for _, sp := range s {
		if sp.End < sp.Start {
			t.Errorf("span ends before it starts: %+v", sp)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m * 1.005} }
	noisy := []float64{50, 100, 150, 100, 200}
	for _, c := range []struct {
		name     string
		old, cur []float64
		lower    bool
		want     verdict
	}{
		{"slower time", steady(1), steady(1.3), true, worse},
		{"faster time", steady(1), steady(0.7), true, better},
		{"within bound", steady(1), steady(1.05), true, same},
		{"lower rate", steady(1000), steady(800), false, worse},
		{"higher rate", steady(1000), steady(1200), false, better},
		{"spread over bound", noisy, steady(200), true, unresolved},
	} {
		if got, _ := judge(c.old, c.cur, c.lower, 0.1); got != c.want {
			t.Errorf("%s: judged %q, want %q", c.name, got, c.want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json and the code must list the same workloads and metrics with
// the same units, and every name must fit the contract's character set.
func TestContractMatchesCode(t *testing.T) {
	c, err := readContract()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, c.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	listed := map[string]string{}
	for _, m := range c.EndToEnd {
		listed[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, d := range endToEnd {
		if listed[d.name] != d.unit {
			t.Errorf("end-to-end %s: code unit %q, BENCHMARK.json %q", d.name, d.unit, listed[d.name])
		}
	}
	if len(listed) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(listed), len(endToEnd))
	}
	listed = map[string]string{}
	for _, m := range c.PerLayer {
		listed[m.Name] = m.Unit
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
			t.Errorf("metric %q unit %q: bad or repeated", d.name, d.unit)
		}
		seen[d.name] = true
	}
	for _, d := range perLayer {
		if listed[d.name] != d.unit {
			t.Errorf("per-layer %s: code unit %q, BENCHMARK.json %q", d.name, d.unit, listed[d.name])
		}
	}
	if len(listed) != len(perLayer) || len(perLayer) > 128 {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(listed), len(perLayer))
	}
}

// TestSmoke builds the binary and runs both passes of every workload at tiny
// sizes, checking that each emits exactly the metrics BENCHMARK.json lists,
// with their units, as its last line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	c, err := readContract()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range c.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, w := range c.Workloads {
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(bin, "--workload", w.Name, "--seed", "3", "--seconds", "0.2",
				"--trace", string(rune('0'+trace)), "-smoke", "-trace-dir", dir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
				t.Fatalf("%s trace %d: last line is not JSON: %v", w.Name, trace, err)
			}
			if len(raw) != 4 {
				t.Errorf("%s trace %d: result has %d keys, want correct, attempted, failed, metrics", w.Name, trace, len(raw))
			}
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatal(err)
			}
			if r.Attempted < 1 || r.Failed < 0 || r.Failed > r.Attempted {
				t.Errorf("%s trace %d: attempted %d failed %d", w.Name, trace, r.Attempted, r.Failed)
			}
			for name, unit := range want[trace] {
				m, ok := r.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: %s is listed in BENCHMARK.json but not emitted", w.Name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace %d: %s has unit %q, BENCHMARK.json %q", w.Name, trace, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace %d: %s is %v", w.Name, trace, name, m.Value)
				case trace == 0 && m.Value <= 0:
					t.Errorf("%s: end-to-end %s is %v, must never be 0", w.Name, name, m.Value)
				}
			}
			for name := range r.Metrics {
				if _, ok := want[trace][name]; !ok {
					t.Errorf("%s trace %d: %s is emitted but not listed in BENCHMARK.json", w.Name, trace, name)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(dir, w.Name+".spans.jsonl")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
			}
		}
	}
}
