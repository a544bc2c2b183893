package sgd

import (
	"math"
	"sync"
	"testing"
	"time"

	"leashedsgd/internal/paramvec"
)

// liveConfig is the static sharded Leashed run the live-read tests train:
// four chains, so a leased read can be mixed-version.
func liveConfig(workers int) Config {
	cfg := testConfig(Leashed, workers)
	cfg.Shards = 4
	return cfg
}

// Start + concurrent ReadParams over a sharded Leashed run: the serving
// tier's read path. Live reads are leased zero-copy (never Copied), every
// read is labeled, no read observes NaN/Inf, and after the run ends reads
// serve the immutable final parameters.
func TestStartServesLiveLeasedReads(t *testing.T) {
	ds := tinyDataset()
	net := tinyNet(ds)
	cfg := liveConfig(2)
	cfg.EpsilonFrac = 0 // profile-style run: ends on MaxTime
	cfg.MaxTime = 400 * time.Millisecond

	r, err := Start(cfg, net, ds)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dim() != net.ParamCount() {
		t.Fatalf("Dim() = %d, want %d", r.Dim(), net.ParamCount())
	}

	var wg sync.WaitGroup
	var reads, consistent, mixed, retired, finals int
	var mu sync.Mutex
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var l paramvec.Lease
			for {
				select {
				case <-r.Done():
					return
				default:
				}
				meta := r.ReadParams(&l, nil, func(pv paramvec.View) {
					if pv.Len() != net.ParamCount() {
						t.Errorf("view length %d, want %d", pv.Len(), net.ParamCount())
					}
					for i := 0; i < pv.Len(); i += 17 {
						if v := pv.At(i); math.IsNaN(v) || math.IsInf(v, 0) {
							t.Errorf("live read observed %v at %d", v, i)
							return
						}
					}
				})
				if meta.Copied {
					t.Error("leashed live read took the copy fallback")
					return
				}
				mu.Lock()
				reads++
				switch {
				case meta.Final:
					finals++
				case meta.Consistent:
					consistent++
				default:
					mixed++
				}
				if meta.Retired {
					retired++
				}
				mu.Unlock()
			}
		}()
	}
	res := r.Wait()
	wg.Wait()
	if res.Outcome == Crashed {
		t.Fatalf("run crashed (loss %v -> %v)", res.InitialLoss, res.FinalLoss)
	}
	if reads == 0 {
		t.Fatal("no live reads completed")
	}
	t.Logf("reads=%d consistent=%d mixed=%d retired=%d final=%d",
		reads, consistent, mixed, retired, finals)

	// Post-run reads serve the final parameters and are labeled Final.
	meta := r.ReadParams(nil, nil, func(pv paramvec.View) {
		if pv.Len() != len(res.FinalParams) {
			t.Fatalf("final view length %d, want %d", pv.Len(), len(res.FinalParams))
		}
		for i, want := range res.FinalParams {
			if pv.At(i) != want {
				t.Fatalf("final view [%d] = %v, want %v", i, pv.At(i), want)
			}
		}
	})
	if !meta.Final || !meta.Consistent {
		t.Fatalf("post-run meta = %+v, want Final and Consistent", meta)
	}
}

// Algorithms without a leased read path (HOGWILD! here) serve concurrent
// outside reads through the strategy's snapshot — labeled Copied.
func TestReadParamsCopyFallback(t *testing.T) {
	ds := tinyDataset()
	net := tinyNet(ds)
	cfg := testConfig(Hogwild, 2)
	cfg.EpsilonFrac = 0
	cfg.MaxTime = 200 * time.Millisecond

	r, err := Start(cfg, net, ds)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]float64, r.Dim())
	live := 0
	for {
		select {
		case <-r.Done():
			r.Wait()
			return
		default:
		}
		meta := r.ReadParams(nil, scratch, func(pv paramvec.View) {
			if pv.Len() != net.ParamCount() {
				t.Errorf("view length %d, want %d", pv.Len(), net.ParamCount())
			}
		})
		if meta.Final {
			continue
		}
		live++
		if !meta.Copied || !meta.Consistent || meta.Chains != 1 {
			t.Fatalf("live hogwild meta = %+v, want Copied+Consistent flat", meta)
		}
	}
}

// Stop ends a run early; Wait returns promptly with a coherent Result.
func TestRunningStop(t *testing.T) {
	ds := tinyDataset()
	net := tinyNet(ds)
	cfg := testConfig(Leashed, 2)
	cfg.EpsilonFrac = 0
	cfg.MaxTime = 30 * time.Second // Stop must beat this by a mile

	r, err := Start(cfg, net, ds)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	r.Stop()
	r.Stop() // idempotent
	select {
	case <-r.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return after Stop")
	}
	res := r.Wait()
	if res.Elapsed >= cfg.MaxTime {
		t.Fatalf("Elapsed = %v, expected an early stop", res.Elapsed)
	}
	if len(res.FinalParams) != net.ParamCount() {
		t.Fatalf("FinalParams length %d, want %d", len(res.FinalParams), net.ParamCount())
	}
	if res.FinalLiveVectors != 0 {
		t.Fatalf("leak: %d vectors live after stopped run", res.FinalLiveVectors)
	}
}
