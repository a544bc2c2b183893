package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHTTPNonFiniteModel serves a model whose parameters are NaN: the
// prediction cannot be encoded as JSON, so /predict answers 500 with the
// reason instead of 200 with an empty body, /stats still answers 200, and
// /healthz answers 503 naming the non-finite parameters — both with JSON
// that parses.
func TestHTTPNonFiniteModel(t *testing.T) {
	net, src := staticFixture(t)
	for i := range src {
		src[i] = math.NaN()
	}
	s, err := New(net, src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/predict", "application/json", jsonBody(t, make([]float64, net.InDim())))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "NaN") {
		t.Fatalf("predict on a NaN model = %d %q, want 500 naming the NaN", resp.StatusCode, body)
	}

	for _, tc := range []struct {
		path   string
		status int
	}{{"/stats", http.StatusOK}, {"/healthz", http.StatusServiceUnavailable}} {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		var v map[string]any
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if resp.StatusCode != tc.status || err != nil {
			t.Fatalf("%s = %d (decode: %v), want %d with a JSON object", tc.path, resp.StatusCode, err, tc.status)
		}
		if tc.path == "/healthz" && !strings.Contains(fmt.Sprint(v["reasons"]), "parameters not finite") {
			t.Fatalf("/healthz on a NaN model = %v, want the reason \"parameters not finite\"", v)
		}
	}
}
