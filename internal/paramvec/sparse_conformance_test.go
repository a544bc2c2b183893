package paramvec

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// Sparse delta-path conformance: GatherSparse reads and the scatter-publish
// (ChainTryPublishSparse) protocol, run table-driven over the storeCases rows
// like the dense conformance suite.

// scatterPublish runs one sparse LAU-SPC round over st: for each chain hit
// by the sorted store-absolute index set, check out a fresh chain vector and
// retry ChainTryPublishSparse under persistence bound tp. Mirrors the
// sparse commit path in internal/sgd.
func scatterPublish(st ParamStore, idx []int32, val []float64, eta float64, tp int) (published, failed int64) {
	C := st.Chains()
	for c := 0; c < C; c++ {
		r := st.ChainRange(c)
		lo := sort.Search(len(idx), func(k int) bool { return int(idx[k]) >= r.Lo })
		hi := sort.Search(len(idx), func(k int) bool { return int(idx[k]) >= r.Hi })
		if lo == hi {
			continue // scatter-publish: untouched chains see no traffic
		}
		nv := st.NewChainVec(c)
		tries := 0
		for {
			cur := st.ChainLatest(c)
			ok := st.ChainTryPublishSparse(c, cur, nv, idx[lo:hi], val[lo:hi], eta)
			cur.StopReading()
			if ok {
				published++
				break
			}
			failed++
			if tries++; tries > tp {
				nv.Release()
				break
			}
		}
	}
	return published, failed
}

// TestViewGatherSparse pins the sparse gather against At on flat and
// segmented views, including boundary-straddling and unsorted index sets.
func TestViewGatherSparse(t *testing.T) {
	const dim = 40
	flat := make([]float64, dim)
	for i := range flat {
		flat[i] = float64(i) * 1.5
	}
	bounds := ShardBounds(dim, 3) // segments of 14/13/13
	segs := make([][]float64, len(bounds))
	offs := make([]int, len(bounds)+1)
	for s, r := range bounds {
		segs[s] = flat[r.Lo:r.Hi]
		offs[s+1] = r.Hi
	}
	views := map[string]View{
		"flat":      FlatView(flat),
		"segmented": SegmentedView(segs, offs),
	}
	cases := [][]int32{
		{},
		{0},
		{39},
		{0, 13, 14, 26, 27, 39}, // straddles both boundaries
		{5, 6, 7, 8},
		{20, 3, 35, 1}, // unsorted: cursor must re-sync backward
	}
	dst := make([]float64, dim)
	for name, v := range views {
		for _, idx := range cases {
			got := v.GatherSparse(idx, dst)
			if len(got) != len(idx) {
				t.Fatalf("%s: GatherSparse returned %d values, want %d", name, len(got), len(idx))
			}
			for k, j := range idx {
				if got[k] != flat[j] {
					t.Fatalf("%s: GatherSparse idx %v: [%d] = %v, want %v", name, idx, k, got[k], flat[j])
				}
			}
		}
	}
}

// TestVectorUpdateSparse checks the base-shifted sparse update and its
// sequence-number advance.
func TestVectorUpdateSparse(t *testing.T) {
	p := NewPool(8)
	v := New(p)
	for i := range v.Theta {
		v.Theta[i] = 10
	}
	v.T = 4
	// Store-absolute indices {18, 21} against a chain covering [16, 24).
	v.UpdateSparse(16, []int32{18, 21}, []float64{2, 3}, 0.5)
	if v.T != 5 {
		t.Fatalf("T = %d, want 5", v.T)
	}
	want := []float64{10, 10, 9, 10, 10, 8.5, 10, 10}
	for i, w := range want {
		if v.Theta[i] != w {
			t.Fatalf("Theta[%d] = %v, want %v", i, v.Theta[i], w)
		}
	}
}

// TestStoreConformanceScatterPublish checks the deterministic scatter
// contract on every row: only the components the delta hits change, only
// the chains it hits advance their sequence numbers, and untouched chains
// keep their exact published vector (pointer identity — no copy, no CAS).
func TestStoreConformanceScatterPublish(t *testing.T) {
	const dim = 64
	for _, tc := range storeCases(dim) {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.build()
			init := make([]float64, dim)
			for i := range init {
				init[i] = float64(i)
			}
			st.PublishInit(init)
			C := st.Chains()
			heads := make([]*Vector, C)
			for c := 0; c < C; c++ {
				heads[c] = st.ChainPeek(c)
			}

			idx := []int32{3, 20, 21, 63}
			val := []float64{1, 2, 3, 4}
			pub, _ := scatterPublish(st, idx, val, -1, 0) // eta −1: θ[j] += val
			touched := map[int]bool{}
			for _, j := range idx {
				for c := 0; c < C; c++ {
					r := st.ChainRange(c)
					if int(j) >= r.Lo && int(j) < r.Hi {
						touched[c] = true
					}
				}
			}
			if int(pub) != len(touched) {
				t.Fatalf("published %d chains, want %d", pub, len(touched))
			}

			dst := make([]float64, dim)
			seqs := st.Snapshot(dst, nil)
			want := append([]float64(nil), init...)
			for k, j := range idx {
				want[j] += val[k]
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("component %d = %v, want %v", i, dst[i], want[i])
				}
			}
			for c := 0; c < C; c++ {
				if touched[c] {
					if seqs[c] != 1 {
						t.Fatalf("touched chain %d seq = %d, want 1", c, seqs[c])
					}
					if st.ChainPeek(c) == heads[c] {
						t.Fatalf("touched chain %d still has its old head", c)
					}
				} else {
					if seqs[c] != 0 {
						t.Fatalf("untouched chain %d seq = %d, want 0", c, seqs[c])
					}
					if st.ChainPeek(c) != heads[c] {
						t.Fatalf("untouched chain %d head was replaced", c)
					}
				}
			}
			st.Retire()
		})
	}
}

// TestStoreConformanceScatterRetiredDrop covers the retired-store drop path
// for a lease held across scatter publishes: the release classifies as
// retired, and every buffer — including ones recycled through the sparse
// publish protocol — drains out of the gauges instead of parking on a dead
// free list.
func TestStoreConformanceScatterRetiredDrop(t *testing.T) {
	const dim = 32
	for _, tc := range storeCases(dim) {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.build()
			st.SetPoison(true)
			st.PublishInit(make([]float64, dim))
			var l Lease
			l.Acquire(st)
			for round := 0; round < 5; round++ {
				scatterPublish(st, []int32{1, 17, 30}, []float64{1, 1, 1}, -1, 4)
			}
			st.Retire()
			if l.Release() {
				t.Fatal("lease across Retire classified consistent")
			}
			if !l.RetiredStore() {
				t.Fatal("RetiredStore = false for lease held across Retire")
			}
			if live := st.Live(); live != 0 {
				t.Fatalf("Live = %d after retire + release, want 0", live)
			}
		})
	}
}

// TestRaceScatterPublishVsLeases is the sparse never-torn proof: concurrent
// scatter publishers hit a fixed chain subset with +1 increments while
// readers lease the whole store. Every leased read must observe (a) no
// poison — a torn or recycled buffer would surface NaN, (b) per-component
// monotonically non-decreasing values — a lost or misdirected scatter would
// break the increment order, and (c) seqlock classification whose advanced
// chains decompose into the published subset only.
func TestRaceScatterPublishVsLeases(t *testing.T) {
	const (
		dim        = 256
		shards     = 8
		publishers = 4
		rounds     = 1500
	)
	for _, tc := range storeCases(dim) {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.build()
			st.SetPoison(true)
			st.PublishInit(make([]float64, dim))
			C := st.Chains()
			// The publishers' nonzeros all land in [0, dim/2): when the
			// store is sharded, the upper chains must never advance.
			sparseHi := dim / 2
			touched := make([]bool, C)
			for c := 0; c < C; c++ {
				touched[c] = st.ChainRange(c).Lo < sparseHi
			}

			var stop atomic.Bool
			var wg sync.WaitGroup
			for p := 0; p < publishers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					// Fixed per-publisher stride keeps index sets sorted
					// and deterministic without sharing an RNG.
					idx := make([]int32, 8)
					val := make([]float64, 8)
					for r := 0; r < rounds; r++ {
						for k := range idx {
							idx[k] = int32((p + r + k*(sparseHi/8)) % sparseHi)
						}
						sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
						// Dedupe in place; equal neighbours collapse.
						n := 0
						for k, j := range idx {
							if k == 0 || j != idx[n-1] {
								idx[n] = j
								n++
							}
						}
						for k := 0; k < n; k++ {
							val[k] = 1
						}
						scatterPublish(st, idx[:n], val[:n], -1, 8)
					}
				}(p)
			}

			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()

			var consistent, mixed int64
			var l Lease
			last := make([]float64, dim)
			cur := make([]float64, dim)
			for {
				select {
				case <-done:
					stop.Store(true)
				default:
				}
				if stop.Load() {
					break
				}
				v := l.Acquire(st)
				for i := 0; i < dim; i++ {
					cur[i] = v.At(i)
				}
				if l.Release() {
					consistent++
				} else {
					mixed++
				}
				for _, c := range l.AdvancedChains() {
					if !touched[c] {
						t.Errorf("untouched chain %d reported advanced", c)
					}
				}
				for i := 0; i < dim; i++ {
					if math.IsNaN(cur[i]) {
						t.Fatalf("leased read surfaced poison at component %d", i)
					}
					if cur[i] < last[i] {
						t.Fatalf("component %d went backwards: %v -> %v", i, last[i], cur[i])
					}
					if i >= sparseHi && cur[i] != 0 {
						t.Fatalf("component %d outside the sparse support changed to %v", i, cur[i])
					}
				}
				last, cur = cur, last
			}
			if consistent+mixed == 0 {
				t.Fatal("reader never completed a lease")
			}
			st.Retire()
			if live := st.Live(); live != 0 {
				t.Fatalf("Live = %d after retire, want 0", live)
			}
		})
	}
}

// TestScatterPublishRecycles proves pool recycling survives the sparse
// protocol: sustained scatter publishes on one store allocate far fewer
// buffers than they publish.
func TestScatterPublishRecycles(t *testing.T) {
	for _, tc := range storeCases(64) {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.build()
			st.PublishInit(make([]float64, 64))
			var pub int64
			for r := 0; r < 200; r++ {
				p, _ := scatterPublish(st, []int32{1, 33}, []float64{1, 1}, -1, 4)
				pub += p
			}
			if st.Reuses() == 0 {
				t.Fatalf("no buffer reuse across %d scatter publishes (allocs %d)", pub, st.Allocs())
			}
			st.Retire()
		})
	}
}
