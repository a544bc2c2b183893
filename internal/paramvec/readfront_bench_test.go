package paramvec

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// BenchmarkStoreReadPaths is the store-comparison microbench: the raw cost
// of one full-θ parameter read while publishers hammer the store, leased
// seqlock acquire vs readfront snapshot, at 1 and 64 chains. This isolates
// what the serve-layer benches measure end-to-end: the leased read walks
// every chain's reader registration (lines the publishers also write), the
// readfront read is one pointer load off to the side.
func BenchmarkStoreReadPaths(b *testing.B) {
	const dim = 4096
	for _, chains := range []int{1, 64} {
		for _, path := range []string{"leased", "readfront"} {
			b.Run(fmt.Sprintf("chains=%d/path=%s", chains, path), func(b *testing.B) {
				inner := NewStore(dim, chains)
				inner.PublishInit(make([]float64, dim))
				defer inner.Retire()

				// Two publishers scatter updates across all chains for the
				// whole measurement, the contention regime of a live run.
				stop := make(chan struct{})
				var wg sync.WaitGroup
				for p := 0; p < 2; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						vecs := make([]*Vector, chains)
						for c := 0; c < chains; c++ {
							vecs[c] = inner.NewChainVec(c)
						}
						for {
							select {
							case <-stop:
								return
							default:
							}
							for c := 0; c < chains; c++ {
								cur := inner.ChainLatest(c)
								vecs[c].CopyFrom(cur)
								vecs[c].T = cur.T + 1
								vecs[c].Theta[0] += 1e-9
								ok := inner.ChainTryPublish(c, cur, vecs[c])
								cur.StopReading()
								if ok {
									vecs[c] = inner.NewChainVec(c)
								}
							}
						}
					}(p)
				}
				defer func() {
					close(stop)
					wg.Wait()
				}()

				var sink float64
				switch path {
				case "leased":
					var lease Lease
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						v := lease.Acquire(inner)
						sink += v.At(0) + v.At(dim-1)
						lease.Release()
					}
				case "readfront":
					rf := NewReadFront(inner, ReadLeash{MaxAge: 2 * time.Millisecond})
					defer rf.Close()
					rf.ReadParams(nil, nil, func(View) {}) // warm
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						rf.ReadParams(nil, nil, func(v View) {
							sink += v.At(0) + v.At(dim-1)
						})
					}
				}
				b.StopTimer()
				runtime.KeepAlive(sink)
			})
		}
	}
}
