package paramvec

import (
	"fmt"
	"testing"
	"time"
)

// quietLeash parks the refresher: a huge age bound clamps the poll interval
// to its 100ms ceiling, so no background fold runs inside an alloc
// measurement window.
var quietLeash = ReadLeash{MaxAge: time.Hour}

// TestReadPathsAllocateNothing: a warm read of θ allocates nothing on either
// read path, however many chains the store shards into. The leased read is
// Acquire + every access form a gradient uses (Flat on one chain, At, a
// 64-index GatherSparse) + Release; the snapshot read is one ReadParams on a
// ReadFront with its refresher parked.
func TestReadPathsAllocateNothing(t *testing.T) {
	const dim = 4096
	idx := make([]int32, 64)
	for i := range idx {
		idx[i] = int32(i*(dim/64) + i%7)
	}
	gath := make([]float64, len(idx))
	cases := []struct {
		name   string
		chains int
		front  bool
	}{
		{"lease/S=1", 1, false},
		{"lease/S=4", 4, false},
		{"lease/S=16", 16, false},
		{"lease/S=64", 64, false},
		{"readfront/S=1", 1, true},
		{"readfront/S=64", 64, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := NewStore(dim, tc.chains)
			st.PublishInit(make([]float64, dim))
			defer st.Retire()
			var sink float64
			var lease Lease
			read := func() {
				v := lease.Acquire(st)
				if flat := v.Flat(); flat != nil {
					sink += flat[0]
				}
				sink += v.At(dim-1) + v.GatherSparse(idx, gath)[0]
				lease.Release()
			}
			if tc.front {
				rf := NewReadFront(st, quietLeash)
				defer rf.Close()
				read = func() {
					rf.ReadParams(nil, nil, func(v View) { sink += v.At(0) + v.At(dim-1) })
				}
			}
			if a := testing.AllocsPerRun(50, read); a != 0 {
				t.Errorf("warm read allocated %.1f times per op, want 0 (sink %v)", a, sink)
			}
		})
	}
}

// TestReadFrontReadTouchesNoChain pins the mechanism behind the snapshot
// read's speed: a ReadFront read inside its leash reaches no chain head of
// the store (counted by the store's probe), where a leased read registers on every chain and
// re-checks every head — the cache lines the publishers write.
func TestReadFrontReadTouchesNoChain(t *testing.T) {
	const dim, chains = 4096, 64
	st := NewStore(dim, chains)
	var heads headCount
	st.probe = &heads
	init := make([]float64, dim)
	init[dim-1] = 3
	st.PublishInit(init)
	defer st.Retire()
	rf := NewReadFront(st, quietLeash)
	rf.Close() // no refresher: only the reads below can reach the store

	heads.latest.Store(0)
	heads.peek.Store(0)
	var got float64
	meta := rf.ReadParams(nil, nil, func(v View) { got = v.At(dim - 1) })
	if got != 3 || !meta.Snapshot {
		t.Fatalf("readfront read = %v (meta %+v), want the published 3 from the snapshot", got, meta)
	}
	if l, p := heads.latest.Load(), heads.peek.Load(); l != 0 || p != 0 {
		t.Fatalf("readfront read made %d ChainLatest and %d ChainPeek calls on the store, want 0 and 0", l, p)
	}

	var lease Lease
	lease.Acquire(st)
	lease.Release()
	if l, p := heads.latest.Load(), heads.peek.Load(); l != chains || p != chains {
		t.Fatalf("leased read made %d ChainLatest and %d ChainPeek calls, want %d each", l, p, chains)
	}
}

// BenchmarkLeaseQuiet times one Acquire+Release of every chain on a quiet
// store (nothing publishes) at S ∈ {1, 8, 64}: the read-side cost the
// benchmark module reports as paramvec.lease_s{1,8,64}_ns. Compare runs of
// two builds alternately; one run on a shared host proves little.
func BenchmarkLeaseQuiet(b *testing.B) {
	const dim = 1 << 16
	for _, chains := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("S=%d", chains), func(b *testing.B) {
			st := NewStore(dim, chains)
			st.PublishInit(make([]float64, dim))
			defer st.Retire()
			var l Lease
			b.ReportAllocs()
			for b.Loop() {
				l.Acquire(st)
				l.Release()
			}
		})
	}
}
