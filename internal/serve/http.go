package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"leashedsgd/internal/jsonfloat"
)

// maxBodyBytes bounds a predict request body (an input vector as JSON; the
// paper architectures take 784 floats, so 1MB is generous).
const maxBodyBytes = 1 << 20

// Handler returns the server's HTTP surface:
//
//	POST /predict  {"x": [..input floats..]} → Prediction JSON
//	               (429 when shedding, 504 when the queue deadline expired,
//	               500 with the reason when the prediction does not encode —
//	               a model whose parameters are not finite)
//	GET  /stats    → Stats JSON
//	GET  /healthz  → 200 Health JSON when healthy, 503 when degraded
//	               (overload, a blown read leash, or parameters that are
//	               not finite — the reasons name which)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", s.handlePredict)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// writeJSON encodes v before it answers: a value encoding/json refuses
// answers 500 with the reason, never status with an empty body. Every float
// a handler sends is a jsonfloat.Float, so only a prediction — its
// probabilities — can fail here, on a model whose parameters are not finite.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encoding the response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	status := http.StatusOK
	if h.Degraded {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, struct {
		Status string `json:"status"`
		Health
	}{Status: map[bool]string{false: "ok", true: "degraded"}[h.Degraded], Health: h})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		X []float64 `json:"x"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	pred, err := s.Predict(req.X)
	switch {
	case errors.Is(err, ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, ErrDeadline):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, pred)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	ms := func(d time.Duration) jsonfloat.Float { return jsonfloat.Float(float64(d) / float64(time.Millisecond)) }
	writeJSON(w, http.StatusOK, map[string]any{
		"requests":      st.Requests,
		"batches":       st.Batches,
		"mean_batch":    jsonfloat.Float(st.MeanBatch),
		"p50_ms":        ms(st.P50),
		"p99_ms":        ms(st.P99),
		"max_ms":        ms(st.MaxLatency),
		"consistent":    st.Consistent,
		"mixed":         st.Mixed,
		"retired_epoch": st.RetiredEpoch,
		"final":         st.Final,
		"copied":        st.Copied,

		"snapshot":              st.Snapshot,
		"max_staleness_updates": st.MaxStalenessUpdates,
		"max_staleness_ms":      ms(st.MaxStalenessAge),

		"shed":    st.Shed,
		"expired": st.Expired,
	})
}
