package serve

import (
	"math"
	"sync"
	"testing"
	"time"

	"leashedsgd/internal/data"
	"leashedsgd/internal/nn"
	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/sgd"
)

// StaticSource.ReadParams must stage through the caller's scratch buffer —
// the view aliases scratch (grown only if undersized), never the checkpoint
// slice itself, so a source swap can't mutate parameters under a dispatched
// batch.
func TestStaticSourceScratchAliasing(t *testing.T) {
	params := []float64{1, 2, 3, 4}
	src := StaticSource(params)

	scratch := make([]float64, 4)
	meta := src.ReadParams(nil, scratch, func(v paramvec.View) {
		s, ok := v.Slice(0, 4)
		if !ok {
			t.Fatal("static view is not flat")
		}
		if &s[0] != &scratch[0] {
			t.Error("static read did not stage through the provided scratch")
		}
		if &s[0] == &params[0] {
			t.Error("static read handed out the checkpoint slice itself")
		}
		for i := range params {
			if s[i] != params[i] {
				t.Errorf("scratch[%d] = %v, want %v", i, s[i], params[i])
			}
		}
	})
	if !meta.Copied || !meta.Consistent || !meta.Final {
		t.Fatalf("static meta = %+v, want Copied+Consistent+Final", meta)
	}

	// Undersized scratch: the source must grow a private buffer, still not
	// alias the checkpoint.
	src.ReadParams(nil, make([]float64, 1), func(v paramvec.View) {
		s, _ := v.Slice(0, 4)
		if &s[0] == &params[0] {
			t.Error("undersized-scratch read handed out the checkpoint slice")
		}
	})
}

// Through the dispatcher's pre-sized scratch a static read allocates nothing.
func TestStaticSourceReadAllocatesNothing(t *testing.T) {
	_, src := staticFixture(t)
	scratch := make([]float64, src.Dim())
	var sink float64
	read := func() {
		src.ReadParams(nil, scratch, func(v paramvec.View) { sink += v.At(0) })
	}
	if a := testing.AllocsPerRun(50, read); a != 0 {
		t.Fatalf("static source read allocated %.1f times per op, want 0 (sink %v)", a, sink)
	}
}

// Requesting the readfront store over a source that is not a live run must
// fail at construction, not at first read.
func TestServeReadFrontRequiresLiveSource(t *testing.T) {
	net, src := staticFixture(t)
	if _, err := New(net, src, Config{Store: StoreReadFront}); err == nil {
		t.Fatal("New(static source, Store=readfront) did not error")
	}
	if _, err := New(net, src, Config{Store: "bogus"}); err == nil {
		t.Fatal("New(Store=bogus) did not error")
	}
}

// The readfront serving path end to end: predictions over a live training
// run on 8 chains (serve_live's store shape) are snapshot-labeled, always consistent, carry measured
// staleness within the configured leash, and switch to Final once the run
// ends. This is the read half of ROADMAP 4(b) as the serving tier sees it.
func TestServeReadFrontE2E(t *testing.T) {
	ds := data.GenerateSynthetic(data.SyntheticConfig{
		Samples: 200, H: 12, W: 12, Classes: 10,
		Seed: 5, Noise: 0.03, Shift: 1, Blur: 1.0,
	})
	net := nn.NewMLP(ds.Dim(), []int{24}, ds.Classes)
	leash := paramvec.ReadLeash{MaxAge: 100 * time.Millisecond}
	run, err := sgd.Start(sgd.Config{
		Algo:        sgd.Leashed,
		Workers:     1,
		Eta:         0.05,
		BatchSize:   8,
		Persistence: sgd.PersistenceInf,
		Seed:        1,
		EpsilonFrac: 0,
		MaxTime:     1500 * time.Millisecond,
		Shards:      8,
	}, net, ds)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(net, run, Config{
		MaxBatch: 8, MaxDelay: 500 * time.Microsecond,
		Store: StoreReadFront, Leash: leash,
	})
	if err != nil {
		run.Stop()
		run.Wait()
		t.Fatal(err)
	}
	defer s.Close()

	var clients sync.WaitGroup
	var mu sync.Mutex
	var served, snapshot, consistent, finals int
	var maxAge time.Duration
	for c := 0; c < 3; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			x := make([]float64, net.InDim())
			for i := range x {
				x[i] = float64((c+i)%19) / 19
			}
			for {
				select {
				case <-run.Done():
					return
				default:
				}
				p, err := s.Predict(x)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				for _, v := range p.Probs {
					if math.IsNaN(v) {
						t.Errorf("client %d: NaN prob", c)
						return
					}
				}
				mu.Lock()
				served++
				if p.Snapshot {
					snapshot++
				}
				if p.Consistent {
					consistent++
				}
				if p.Final {
					finals++
				}
				if p.StalenessAge > maxAge {
					maxAge = p.StalenessAge
				}
				if !p.Final && p.StalenessAge > leash.MaxAge {
					t.Errorf("client %d: served staleness %v exceeds the %v leash", c, p.StalenessAge, leash.MaxAge)
				}
				if p.StalenessAge < 0 || p.StalenessUpdates < 0 {
					t.Errorf("client %d: negative staleness %+v", c, p)
				}
				mu.Unlock()
			}
		}(c)
	}
	clients.Wait()
	res := run.Wait()
	if res == nil {
		t.Fatal("run.Wait returned nil")
	}
	if served == 0 {
		t.Fatal("no predictions served during the run")
	}
	if snapshot != served {
		t.Fatalf("%d of %d predictions snapshot-labeled; readfront must label every answer", snapshot, served)
	}
	if consistent != served {
		t.Fatalf("%d of %d predictions consistent; snapshot reads are consistent by construction", consistent, served)
	}
	t.Logf("served=%d finals=%d maxStalenessAge=%v", served, finals, maxAge)

	// Post-run: the front is frozen; answers are Final with zero staleness.
	x := make([]float64, net.InDim())
	p, err := s.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Final || !p.Consistent || !p.Snapshot {
		t.Fatalf("post-run prediction = %+v, want Final+Consistent+Snapshot", p)
	}
	if p.StalenessAge != 0 || p.StalenessUpdates != 0 {
		t.Fatalf("post-run prediction carries staleness %+v", p)
	}
	st := s.Stats()
	if st.Snapshot != int64(served)+1 {
		t.Fatalf("stats counted %d snapshot reads, want %d", st.Snapshot, served+1)
	}
	if st.MaxStalenessAge > leash.MaxAge {
		t.Fatalf("stats max staleness %v exceeds the %v leash", st.MaxStalenessAge, leash.MaxAge)
	}
}
