package sgd

import (
	"math"
	"testing"
	"time"

	"leashedsgd/internal/paramvec"
)

// Front over a live sharded Leashed run: snapshot reads are consistent the
// whole way through, staleness stays within the leash, and after the run
// ends the front is frozen onto the exact final parameters.
func TestRunningFrontLiveAndFinal(t *testing.T) {
	ds := tinyDataset()
	net := tinyNet(ds)
	cfg := liveConfig(2)
	cfg.EpsilonFrac = 0
	cfg.MaxTime = 400 * time.Millisecond

	r, err := Start(cfg, net, ds)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := r.Front(paramvec.ReadLeash{MaxAge: 2 * time.Millisecond})
	if err != nil {
		r.Stop()
		r.Wait()
		t.Fatal(err)
	}

	live := 0
	for {
		select {
		case <-r.Done():
		default:
			meta := rf.ReadParams(nil, nil, func(pv paramvec.View) {
				if pv.Len() != net.ParamCount() {
					t.Errorf("front view length %d, want %d", pv.Len(), net.ParamCount())
				}
				for i := 0; i < pv.Len(); i += 17 {
					if v := pv.At(i); math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("front read observed %v at %d", v, i)
					}
				}
			})
			if !meta.Consistent || !meta.Snapshot {
				t.Fatalf("live front read %d: meta = %+v, want Consistent+Snapshot", live, meta)
			}
			if meta.StalenessAge < 0 || meta.StalenessUpdates < 0 {
				t.Fatalf("live front read %d: negative staleness %+v", live, meta)
			}
			live++
			continue
		}
		break
	}
	res := r.Wait()
	if live == 0 {
		t.Fatal("no live front reads landed before the run ended")
	}

	meta := rf.ReadParams(nil, nil, func(pv paramvec.View) {
		for i, want := range res.FinalParams {
			if got := pv.At(i); got != want {
				t.Fatalf("frozen front[%d] = %v, want final %v", i, got, want)
			}
		}
	})
	if !meta.Final || !meta.Consistent {
		t.Fatalf("post-run front meta = %+v, want Final+Consistent", meta)
	}
	if meta.StalenessUpdates != 0 || meta.StalenessAge != 0 {
		t.Fatalf("frozen front reported staleness %+v", meta)
	}
	rf.Close()
}

// Front after the run has already finished: the hook must still hand back a
// usable front, pre-frozen onto the final parameters.
func TestRunningFrontAfterFinish(t *testing.T) {
	ds := tinyDataset()
	net := tinyNet(ds)
	cfg := liveConfig(2)
	cfg.EpsilonFrac = 0
	cfg.MaxTime = 50 * time.Millisecond

	r, err := Start(cfg, net, ds)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Wait()
	rf, err := r.Front(paramvec.ReadLeash{})
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	meta := rf.ReadParams(nil, nil, func(pv paramvec.View) {
		for i, want := range res.FinalParams {
			if got := pv.At(i); got != want {
				t.Fatalf("late front[%d] = %v, want final %v", i, got, want)
			}
		}
	})
	if !meta.Final {
		t.Fatalf("late front meta = %+v, want Final", meta)
	}
}

// Algorithms without a pinnable publication store (HOGWILD!'s shared mutable
// array has no immutable published vectors to fold) must refuse the hook
// while live instead of serving torn snapshots.
func TestRunningFrontUnsupportedAlgo(t *testing.T) {
	ds := tinyDataset()
	net := tinyNet(ds)
	cfg := testConfig(Hogwild, 2)
	cfg.EpsilonFrac = 0
	cfg.MaxTime = 300 * time.Millisecond

	r, err := Start(cfg, net, ds)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r.Stop()
		r.Wait()
	}()
	if _, err := r.Front(paramvec.ReadLeash{}); err == nil {
		t.Fatal("Front over a live HOGWILD! run did not error")
	}
}

// Fronts taken in a loop while the run reaches its budget: each Front races
// finish's freeze and the store's retirement. Every front must return and
// serve a consistent snapshot — live or final — and the fronts still open
// when the run ends must serve exactly the final parameters; no Front, read
// or Close may hang. Only the newest fronts stay open, so the refreshers
// running at once stay few.
func TestRunningFrontLoopAcrossFinish(t *testing.T) {
	const keep = 8
	ds := tinyDataset()
	net := tinyNet(ds)
	cfg := liveConfig(2)
	cfg.EpsilonFrac = 0
	cfg.MaxUpdates = 400

	r, err := Start(cfg, net, ds)
	if err != nil {
		t.Fatal(err)
	}
	var open []*paramvec.ReadFront
	taken := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for after := 0; after < 3; taken++ {
			select {
			case <-r.Done():
				after++
			default:
			}
			rf, err := r.Front(paramvec.ReadLeash{MaxAge: time.Millisecond})
			if err != nil {
				t.Errorf("front %d: %v", taken, err)
				return
			}
			if meta := rf.ReadParams(nil, nil, func(paramvec.View) {}); !meta.Consistent || !meta.Snapshot {
				t.Errorf("front %d: meta = %+v, want a consistent snapshot", taken, meta)
				return
			}
			if open = append(open, rf); len(open) > keep {
				open[0].Close()
				open = open[1:]
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Front, a front read or Close hung while the run finished")
	}
	res := r.Wait()
	for i, rf := range open {
		meta := rf.ReadParams(nil, nil, func(pv paramvec.View) {
			for j, want := range res.FinalParams {
				if got := pv.At(j); got != want {
					t.Fatalf("open front %d after the run: [%d] = %v, want final %v", i, j, got, want)
				}
			}
		})
		if !meta.Final {
			t.Fatalf("open front %d after the run: meta = %+v, want Final", i, meta)
		}
		rf.Close()
	}
	t.Logf("%d fronts taken across the finish", taken)
}
