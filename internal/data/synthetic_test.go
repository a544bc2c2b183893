package data

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
)

// digest hashes every pixel's bit pattern and every label of ds, in row
// order, so two datasets share a digest only if they are bit-identical.
func digest(ds *Dataset) string {
	h := sha256.New()
	var b [8]byte
	for i, row := range ds.X {
		binary.LittleEndian.PutUint64(b[:], uint64(ds.Y[i]))
		h.Write(b[:])
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// tinyConfig is the 12×12 generator the sgd and serve tests train on.
func tinyConfig(samples int, seed uint64) SyntheticConfig {
	return SyntheticConfig{Samples: samples, H: 12, W: 12, Classes: 10,
		Seed: seed, Noise: 0.03, Shift: 1, Blur: 1.0}
}

// The generator's output is pinned bit for bit: these digests were recorded
// from the straight sequential generator (one stream, one row after the
// other, every stroke drawn per row). The stroke cache and the parallel row
// fill must reproduce it exactly, at any GOMAXPROCS.
var goldenDigests = []struct {
	name string
	cfg  SyntheticConfig
	want string
	long bool // skipped under -short (the race leg)
}{
	{"bench-pool", DefaultSyntheticConfig(8192, 20210517), "011af9103a2d5e5b", true},
	{"default-256", DefaultSyntheticConfig(256, 1), "0b54bea221ec21cf", false},
	{"tiny-200", tinyConfig(200, 5), "7c321130c848c0fc", false},
	{"samples-1", DefaultSyntheticConfig(1, 3), "f1348e0ff94e7b18", false},
	{"samples-7", DefaultSyntheticConfig(7, 3), "4cacf2dce7db3115", false},
	{"tiny-samples-7", tinyConfig(7, 9), "3ebb78beb5f5f61e", false},
	{"wide-shift-no-noise", SyntheticConfig{Samples: 300, H: 20, W: 16, Classes: 4, Seed: 8, Shift: 5, Blur: 0.7}, "ea4af475c74bbdce", false},
}

func TestGenerateSyntheticGoldenDigests(t *testing.T) {
	for _, g := range goldenDigests {
		t.Run(g.name, func(t *testing.T) {
			if g.long && testing.Short() {
				t.Skip("8192-row pool skipped in -short mode")
			}
			got := digest(GenerateSynthetic(g.cfg))
			t.Logf("%s: %s", g.name, got)
			if got != g.want {
				t.Errorf("digest = %s, want %s", got, g.want)
			}
		})
	}
}

// The rows are filled by GOMAXPROCS goroutines from saved stream positions;
// how many there are must not change a bit of the output.
func TestGenerateSyntheticIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, g := range goldenDigests {
		if g.long && testing.Short() {
			continue
		}
		runtime.GOMAXPROCS(1)
		one := digest(GenerateSynthetic(g.cfg))
		runtime.GOMAXPROCS(4)
		four := digest(GenerateSynthetic(g.cfg))
		if one != four || one != g.want {
			t.Errorf("%s: GOMAXPROCS 1 → %s, 4 → %s, golden %s", g.name, one, four, g.want)
		}
	}
}

// Every input the generator cannot draw from fails where it enters, with the
// one message, instead of panicking deep in the stream, indexing past the
// stroke table or drawing blank or NaN images.
func TestGenerateSyntheticRejectsInvalidConfig(t *testing.T) {
	cases := []struct {
		name string
		edit func(*SyntheticConfig)
	}{
		{"zero samples", func(c *SyntheticConfig) { c.Samples = 0 }},
		{"zero height", func(c *SyntheticConfig) { c.H = 0 }},
		{"zero width", func(c *SyntheticConfig) { c.W = 0 }},
		{"one class", func(c *SyntheticConfig) { c.Classes = 1 }},
		{"negative shift", func(c *SyntheticConfig) { c.Shift = -1 }},
		{"zero blur", func(c *SyntheticConfig) { c.Blur = 0 }},
		{"negative blur", func(c *SyntheticConfig) { c.Blur = -1.3 }},
		{"NaN blur", func(c *SyntheticConfig) { c.Blur = math.NaN() }},
		{"infinite blur", func(c *SyntheticConfig) { c.Blur = math.Inf(1) }},
		{"negative noise", func(c *SyntheticConfig) { c.Noise = -0.05 }},
		{"NaN noise", func(c *SyntheticConfig) { c.Noise = math.NaN() }},
		{"infinite noise", func(c *SyntheticConfig) { c.Noise = math.Inf(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig(20, 1)
			tc.edit(&cfg)
			defer func() {
				if r := recover(); r != "data: invalid SyntheticConfig" {
					t.Fatalf("recovered %v, want the invalid-config panic", r)
				}
			}()
			GenerateSynthetic(cfg)
		})
	}
	// The boundaries stay valid: no shift, no noise.
	cfg := tinyConfig(20, 1)
	cfg.Shift, cfg.Noise = 0, 0
	if err := GenerateSynthetic(cfg).Validate(); err != nil {
		t.Fatal(err)
	}
}
