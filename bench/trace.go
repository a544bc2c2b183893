package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one replica
// iteration (or one monitor tick, or one client round) share Run; Parent is 0
// for a root. N carries the count measured at the same boundary (CAS
// attempts, chains touched, rows evaluated).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Run    uint64 `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n"`
}

// recorder collects the spans of ONE goroutine in memory; nothing is written
// until the pass ends. Span ids are the recorder's lane in the high bits plus
// a local counter, so recorders never synchronise with each other. A nil
// recorder records nothing, which is how the untraced replica runs the same
// code.
type recorder struct {
	lane  uint64
	base  time.Time
	spans []span
	stack []int // indices of the open spans, innermost last
	run   uint64
}

func newRecorder(lane int, base time.Time) *recorder {
	return &recorder{lane: uint64(lane+1) << 40, base: base, spans: make([]span, 0, 1<<16)}
}

// begin opens a span under the innermost open one; a span opened with the
// stack empty is a root and starts a new run id.
func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	id := r.lane | uint64(len(r.spans)+1)
	var parent uint64
	if n := len(r.stack); n > 0 {
		parent = r.spans[r.stack[n-1]].ID
	} else {
		r.run = id
	}
	r.stack = append(r.stack, len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: r.run, Name: name,
		Start: int64(time.Since(r.base))})
}

// end closes the innermost open span, attaching the boundary count n.
func (r *recorder) end(n int) {
	if r == nil {
		return
	}
	i := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[i].End = int64(time.Since(r.base))
	r.spans[i].N = n
}

// mergeSpans concatenates the recorders' spans (nil recorders skipped).
func mergeSpans(recs ...*recorder) []span {
	var all []span
	for _, r := range recs {
		if r != nil {
			all = append(all, r.spans...)
		}
	}
	return all
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval covered by its direct children.
// Children are clipped to the parent and their union is taken, so nested,
// adjacent and partially overlapping children are each counted once.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of kids' intervals clipped to p.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cursor := p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cursor), min(k.End, p.End)
		if hi > lo {
			total += hi - lo
			cursor = hi
		}
	}
	return total
}

// totalByName sums span durations per name and counts them.
func totalByName(spans []span) (dur map[string]int64, count map[string]int) {
	dur, count = make(map[string]int64), make(map[string]int)
	for _, s := range spans {
		dur[s.Name] += s.End - s.Start
		count[s.Name]++
	}
	return dur, count
}

// writeSpans writes the spans as JSON lines to dir/<workload>.spans.jsonl.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create trace dir: %w", err)
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("create span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("write span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write span file: %w", err)
	}
	return path, nil
}

// spanCost measures the cost of one empty begin/end pair — the per-span
// tracing overhead reported as trace.span_ns.
func spanCost() float64 {
	r := newRecorder(0, time.Now())
	const n = 1 << 15
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.begin("empty")
		r.end(0)
	}
	return float64(time.Since(t0)) / n
}
