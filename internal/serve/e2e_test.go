package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"leashedsgd/internal/data"
	"leashedsgd/internal/nn"
	"leashedsgd/internal/sgd"
)

// The acceptance path, end to end: `leashed serve` answers batched predict
// requests over HTTP while a Leashed training run publishes into the same
// chain store over 8 chains (serve_live's store shape). Every served
// prediction must be a valid distribution with its consistency label; after
// the run ends the server switches to the immutable final parameters.
func TestServeWhileTrainingE2E(t *testing.T) {
	ds := data.GenerateSynthetic(data.SyntheticConfig{
		Samples: 200, H: 12, W: 12, Classes: 10,
		Seed: 5, Noise: 0.03, Shift: 1, Blur: 1.0,
	})
	net := nn.NewMLP(ds.Dim(), []int{24}, ds.Classes)
	cfg := sgd.Config{
		Algo:        sgd.Leashed,
		Workers:     1,
		Eta:         0.05,
		BatchSize:   8,
		Persistence: sgd.PersistenceInf,
		Seed:        1,
		EpsilonFrac: 0, // profile run: ends on MaxTime
		MaxTime:     2 * time.Second,
		Shards:      8,
	}
	run, err := sgd.Start(cfg, net, ds)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(net, run, Config{MaxBatch: 8, MaxDelay: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var clients sync.WaitGroup
	var mu sync.Mutex
	var served, consistent, mixed, retired, finals int
	for c := 0; c < 3; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			x := make([]float64, net.InDim())
			for i := range x {
				x[i] = float64((c*31+i)%17) / 17
			}
			body, _ := json.Marshal(map[string][]float64{"x": x})
			client := srv.Client()
			for {
				select {
				case <-run.Done():
					return
				default:
				}
				resp, err := client.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					t.Errorf("client %d: status %d", c, resp.StatusCode)
					return
				}
				var p Prediction
				if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
					resp.Body.Close()
					t.Errorf("client %d: %v", c, err)
					return
				}
				resp.Body.Close()
				checkPrediction(t, net, p)
				mu.Lock()
				served++
				switch {
				case p.Final:
					finals++
				case p.Consistent:
					consistent++
				default:
					mixed++
				}
				if p.RetiredEpoch {
					retired++
				}
				mu.Unlock()
			}
		}(c)
	}
	res := run.Wait()
	clients.Wait()

	if res.Outcome == sgd.Crashed {
		t.Fatalf("training crashed (loss %v -> %v)", res.InitialLoss, res.FinalLoss)
	}
	if served == 0 {
		t.Fatal("no predictions served during training")
	}
	t.Logf("served=%d consistent=%d mixed=%d retiredEpoch=%d final=%d",
		served, consistent, mixed, retired, finals)

	// Post-training: the same server now answers from the immutable final
	// parameters, labeled Final.
	x := make([]float64, net.InDim())
	deadline := time.Now().Add(5 * time.Second)
	for {
		p, err := s.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		checkPrediction(t, net, p)
		if p.Final {
			if !p.Consistent {
				t.Fatalf("final prediction not Consistent: %+v", p)
			}
			break
		}
		// A batch coalesced with stragglers from the live window may
		// predate the flip; retry briefly.
		if time.Now().After(deadline) {
			t.Fatalf("prediction never labeled Final after training ended: %+v", p)
		}
	}
	s.Close()
	if _, err := s.Predict(x); err != ErrClosed {
		t.Fatalf("Predict after Close = %v, want ErrClosed", err)
	}
}
