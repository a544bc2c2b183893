package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"leashedsgd/internal/data"
	"leashedsgd/internal/nn"
	"leashedsgd/internal/sgd"
)

// benchStores are the two live read paths the serving benches compare at
// equal training load.
var benchStores = []string{StoreLeased, StoreReadFront}

// startLiveRun launches the shared serving workload: a tiny MLP (so the
// forward pass does not drown the read path being measured) trained by a
// static 64-chain Leashed run — 2 workers publishing flat-out across 64
// chains is the regime where the leased read pays 64 per-chain
// acquire/validate round-trips against hot publisher cache lines per batch,
// while the readfront read stays one atomic pointer load.
func startLiveRun(b *testing.B) (*nn.Network, *sgd.Running) {
	b.Helper()
	ds := data.GenerateSynthetic(data.SyntheticConfig{
		Samples: 256, H: 12, W: 12, Classes: 10, Seed: 7,
		Noise: 0.03, Shift: 1, Blur: 1.0,
	})
	net := nn.NewMLP(ds.Dim(), []int{16}, ds.Classes)
	run, err := sgd.Start(sgd.Config{
		Algo:        sgd.Leashed,
		Workers:     2,
		Eta:         0.05,
		BatchSize:   8,
		Persistence: sgd.PersistenceInf,
		Shards:      64,
		EpsilonFrac: 0, // profile run: only the bench window ends it
		MaxTime:     10 * time.Minute,
		EvalEvery:   50 * time.Millisecond,
		Seed:        7,
	}, net, ds)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		run.Stop()
		run.Wait()
	})
	return net, run
}

func liveServer(b *testing.B, store string, cfg Config) (*nn.Network, *Server) {
	b.Helper()
	net, run := startLiveRun(b)
	cfg.Store = store
	s, err := New(net, run, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return net, s
}

// BenchmarkServePredictLatency is the single-client floor at equal live
// training load: sequential predicts with coalescing disabled, so every
// request pays one parameter read + one B=1 forward — leased vs readfront.
func BenchmarkServePredictLatency(b *testing.B) {
	for _, store := range benchStores {
		b.Run("store="+store, func(b *testing.B) {
			net, s := liveServer(b, store, Config{MaxDelay: -1, MaxBatch: 1})
			x := make([]float64, net.InDim())
			for i := range x {
				x[i] = float64(i%17) / 17
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Predict(x); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := s.Stats()
			b.ReportMetric(float64(st.P50)/float64(time.Microsecond), "p50-us")
			b.ReportMetric(float64(st.P99)/float64(time.Microsecond), "p99-us")
		})
	}
}

// BenchmarkServeThroughputBatched is the coalescing path under concurrent
// load at equal live training load: a fixed pool of 8 closed-loop clients
// (fixed, not GOMAXPROCS, so the batch sizes are comparable across machines)
// splits b.N requests, and the dispatcher folds them into shared
// ForwardBatch calls — leased vs readfront.
func BenchmarkServeThroughputBatched(b *testing.B) {
	for _, store := range benchStores {
		b.Run("store="+store, func(b *testing.B) {
			net, s := liveServer(b, store, Config{MaxBatch: 32, MaxDelay: 200 * time.Microsecond})
			const clients = 8
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				n := b.N / clients
				if c < b.N%clients {
					n++
				}
				wg.Add(1)
				go func(c, n int) {
					defer wg.Done()
					x := make([]float64, net.InDim())
					for i := range x {
						x[i] = float64((c+i)%13) / 13
					}
					for i := 0; i < n; i++ {
						if _, err := s.Predict(x); err != nil {
							b.Error(err)
							return
						}
					}
				}(c, n)
			}
			wg.Wait()
			b.StopTimer()
			st := s.Stats()
			b.ReportMetric(st.MeanBatch, "batch")
			if el := b.Elapsed(); el > 0 {
				b.ReportMetric(float64(st.Requests)/el.Seconds(), "req/s")
			}
		})
	}
}

// BenchmarkServeReadContention is the readers≫writers regime: 8 and 16
// closed-loop clients with coalescing disabled (MaxBatch 1), so every request
// is one parameter read racing 2 training workers' publishes across 64
// chains. This is where the store choice dominates: the leased path's
// per-chain reader registrations ping-pong the publishers' cache lines, the
// readfront path reads one amortized snapshot the publishers never touch.
func BenchmarkServeReadContention(b *testing.B) {
	for _, clients := range []int{8, 16} {
		for _, store := range benchStores {
			b.Run(fmt.Sprintf("clients=%d/store=%s", clients, store), func(b *testing.B) {
				net, s := liveServer(b, store, Config{MaxBatch: 1, MaxDelay: -1})
				b.ResetTimer()
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					n := b.N / clients
					if c < b.N%clients {
						n++
					}
					wg.Add(1)
					go func(c, n int) {
						defer wg.Done()
						x := make([]float64, net.InDim())
						for i := range x {
							x[i] = float64((c+i)%11) / 11
						}
						for i := 0; i < n; i++ {
							if _, err := s.Predict(x); err != nil {
								b.Error(err)
								return
							}
						}
					}(c, n)
				}
				wg.Wait()
				b.StopTimer()
				st := s.Stats()
				if el := b.Elapsed(); el > 0 {
					b.ReportMetric(float64(st.Requests)/el.Seconds(), "req/s")
				}
				if st.Snapshot > 0 {
					b.ReportMetric(float64(st.MaxStalenessAge)/float64(time.Millisecond), "max-stale-ms")
				}
			})
		}
	}
}
