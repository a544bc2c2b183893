package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leashedsgd/internal/nn"
	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/sgd"
)

// swapStoreSource drives the real batcher against a real ParamStore under
// maximum read-path hostility: concurrent publishers maintain the marker
// invariant (every cell of a chain's published buffer equals a per-chain
// marker value derived from its sequence number), and a swapper goroutine
// periodically retires the store and installs a fresh one with a different
// shard count — the autotuner's epoch swap, at a far higher rate than any
// real run. ReadParams verifies INSIDE the leased window that every cell of
// every chain holds exactly the marker of the sequence number the lease read
// for that chain: a torn or recycled read is impossible, and any violation
// fails the test immediately.
type swapStoreSource struct {
	t   *testing.T
	mu  sync.RWMutex // epoch pin: Lock = swap, RLock = acquire
	st  paramvec.ParamStore
	dim int

	torn    atomic.Int64
	reads   atomic.Int64
	retired atomic.Int64
}

// markerOf is the published value for a chain at sequence number seq: small
// and uniform within the chain so the forward pass stays finite and a mixed
// buffer is detectable.
func markerOf(seq int64) float64 { return float64(seq%13) * 1e-3 }

func (s *swapStoreSource) Dim() int { return s.dim }

func (s *swapStoreSource) ReadParams(l *paramvec.Lease, _ []float64, fn func(paramvec.View)) sgd.ReadMeta {
	s.mu.RLock()
	st := s.st
	pv := l.Acquire(st)
	s.mu.RUnlock()
	// The lease is held but the epoch is unpinned: the swapper may retire
	// st at any point from here on. The leased buffers must stay intact
	// regardless.
	for c := 0; c < st.Chains(); c++ {
		r, want := st.ChainRange(c), markerOf(l.Seq(c))
		for j := r.Lo; j < r.Hi; j++ {
			if got := pv.At(j); got != want {
				s.t.Errorf("torn or recycled leased segment: chain %d at seq %d holds %v at %d, want %v",
					c, l.Seq(c), got, j, want)
				s.torn.Add(1)
				break
			}
		}
	}
	fn(pv)
	// Hold the lease open a moment longer — a real inference pass on a
	// paper-sized net is much longer than this toy forward — so publishes
	// and swaps can land inside the window and the mixed-version /
	// retired-epoch labels actually get exercised.
	time.Sleep(50 * time.Microsecond)
	consistent := l.Release()
	s.reads.Add(1)
	if l.RetiredStore() {
		s.retired.Add(1)
	}
	return sgd.ReadMeta{Consistent: consistent, Retired: l.RetiredStore(), Chains: l.Chains()}
}

// TestServeNeverTornAcrossStoreSwaps runs the real Server (batcher,
// dispatcher, ForwardBatch) over a store that is being published to and
// re-sharded concurrently. No served prediction may ever observe a torn
// vector; mixed-version and retired-epoch reads are allowed and must be
// labeled.
func TestServeNeverTornAcrossStoreSwaps(t *testing.T) {
	net := nn.NewMLP(4, []int{3}, 2) // d = 4*3+3 + 3*2+2 = 23
	dim := net.ParamCount()
	shardCounts := []int{4, 1, 6, 2}

	src := &swapStoreSource{t: t, dim: dim}
	// Every store starts at seq 0 on every chain, so its init is marker 0
	// everywhere.
	init := make([]float64, dim)
	for i := range init {
		init[i] = markerOf(0)
	}
	st0 := paramvec.NewStore(dim, shardCounts[0])
	st0.SetPoison(true)
	st0.PublishInit(init)
	src.st = st0

	stop := make(chan struct{})
	var workers sync.WaitGroup

	// Publishers: LAU-SPC rounds maintaining the marker invariant,
	// re-reading the current store under the epoch pin each round.
	for w := 0; w < 2; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				src.mu.RLock()
				st := src.st
				C := st.Chains()
				for k := 0; k < C; k++ {
					c := (w + k) % C
					nv := st.NewChainVec(c)
					tries := 0
					for {
						cur := st.ChainLatest(c)
						nv.CopyFrom(cur)
						cur.StopReading()
						nv.T++
						m := markerOf(nv.T)
						for i := range nv.Theta {
							nv.Theta[i] = m
						}
						if st.ChainTryPublish(c, cur, nv) {
							break
						}
						if tries++; tries > 1 {
							nv.Release()
							break
						}
					}
				}
				src.mu.RUnlock()
				runtime.Gosched()
			}
		}(w)
	}

	// Swapper: the epoch-barrier store swap in the autotuner's shape —
	// quiesce behind the write lock, consistent snapshot, retire, install a
	// fresh store with a different shard count. The fresh store publishes
	// the marker-0 init, not the snapshot: the autotuner carries θ across,
	// but here the old layout's markers folded into a coarser chain would
	// break the marker invariant the readers check. Paced so publishes and
	// open read windows interleave with the swaps (a lock-hogging swapper
	// would serialize everything and never produce mixed or retired-epoch
	// reads).
	swaps := 0
	workers.Add(1)
	go func() {
		defer workers.Done()
		buf := make([]float64, dim)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			time.Sleep(100 * time.Microsecond)
			src.mu.Lock()
			old := src.st
			// No publisher holds the read lock, so the first attempt must
			// validate.
			if _, ok := old.SnapshotConsistent(buf, 1); !ok {
				t.Errorf("swap %d: snapshot behind the write lock did not validate", i)
			}
			old.Retire()
			next := paramvec.NewStore(dim, shardCounts[i%len(shardCounts)])
			next.SetPoison(true)
			next.PublishInit(init)
			src.st = next
			swaps++
			src.mu.Unlock()
		}
	}()

	// The real serving path on top: HTTP-free Predict clients through the
	// batcher.
	s, err := New(net, src, Config{MaxBatch: 8, MaxDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	iters := 300
	if testing.Short() {
		iters = 60
	}
	var clients sync.WaitGroup
	for c := 0; c < 4; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			x := make([]float64, net.InDim())
			for i := range x {
				x[i] = float64(c+i) * 0.1
			}
			for i := 0; i < iters; i++ {
				p, err := s.Predict(x)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				checkPrediction(t, net, p)
				if p.Final || p.Copied {
					t.Errorf("live store read labeled Final/Copied: %+v", p)
					return
				}
			}
		}(c)
	}
	clients.Wait()
	close(stop)
	workers.Wait()
	s.Close()

	if src.torn.Load() != 0 {
		t.Fatalf("%d torn reads observed", src.torn.Load())
	}
	if src.reads.Load() == 0 {
		t.Fatal("no reads served")
	}
	stats := s.Stats()
	t.Logf("reads=%d swaps=%d retiredReads=%d consistent=%d mixed=%d",
		src.reads.Load(), swaps, src.retired.Load(), stats.Consistent, stats.Mixed)
	if stats.Consistent+stats.Mixed != stats.Requests {
		t.Fatalf("labels don't partition requests: %+v", stats)
	}
}
