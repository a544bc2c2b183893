package checkpoint

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"leashedsgd/internal/jsonfloat"
)

func sampleMeta() Meta {
	return Meta{Arch: "mlp-784-128-10", Dim: 4, Algo: "LSH", FinalLoss: 0.42,
		Updates: 1234, SavedAt: time.Date(2026, 6, 12, 0, 0, 0, 0, time.UTC)}
}

func TestRoundTrip(t *testing.T) {
	params := []float64{1.5, -2.25, 0, math.SmallestNonzeroFloat64}
	var buf bytes.Buffer
	if err := Write(&buf, sampleMeta(), params); err != nil {
		t.Fatal(err)
	}
	meta, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Arch != "mlp-784-128-10" || meta.Updates != 1234 || meta.FinalLoss != 0.42 {
		t.Fatalf("meta = %+v", meta)
	}
	for i := range params {
		if got[i] != params[i] {
			t.Fatalf("param %d = %v, want %v", i, got[i], params[i])
		}
	}
}

// TestNonFiniteFinalLossRoundTrip: a crashed run's checkpoint — FinalLoss
// NaN or ±Inf — writes, and reads back with the same value.
func TestNonFiniteFinalLossRoundTrip(t *testing.T) {
	for _, loss := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := sampleMeta()
		m.FinalLoss = jsonfloat.Float(loss)
		var buf bytes.Buffer
		if err := Write(&buf, m, []float64{1, 2, 3, 4}); err != nil {
			t.Fatalf("Write with FinalLoss %v: %v", loss, err)
		}
		meta, _, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read with FinalLoss %v: %v", loss, err)
		}
		got := float64(meta.FinalLoss)
		if !(got == loss || math.IsNaN(got) && math.IsNaN(loss)) {
			t.Fatalf("FinalLoss read back as %v, want %v", got, loss)
		}
	}
}

func TestDimMismatchRejected(t *testing.T) {
	m := sampleMeta()
	m.Dim = 7
	var buf bytes.Buffer
	if err := Write(&buf, m, []float64{1, 2}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestDimAutoFilled(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Meta{Arch: "x"}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	meta, params, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Dim != 3 || len(params) != 3 {
		t.Fatalf("dim = %d, params = %d", meta.Dim, len(params))
	}
}

func TestCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleMeta(), []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-10] ^= 0xff // flip a bit in the parameter section
	if _, _, err := Read(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	raw := make([]byte, 64)
	if _, _, err := Read(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic accepted: %v", err)
	}
}

func TestTruncatedRejected(t *testing.T) {
	if _, _, err := Read(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("truncated accepted")
	}
	var buf bytes.Buffer
	if err := Write(&buf, sampleMeta(), []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-6]
	if _, _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Fatal("mid-truncation accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	params := []float64{3.14, 2.71}
	m := sampleMeta()
	m.Dim = 2
	if err := Save(path, m, params); err != nil {
		t.Fatal(err)
	}
	meta, got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Algo != "LSH" || got[0] != 3.14 || got[1] != 2.71 {
		t.Fatalf("loaded %+v %v", meta, got)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, _, err := Load(filepath.Join(t.TempDir(), "nope.ckpt")); err == nil {
		t.Fatal("missing file loaded")
	}
}

// Property: any finite parameter vector round-trips bit-exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(vals []float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) {
				vals[i] = 0 // NaN payloads round-trip but compare unequal
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, Meta{Arch: "p"}, vals); err != nil {
			return false
		}
		_, got, err := Read(&buf)
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
