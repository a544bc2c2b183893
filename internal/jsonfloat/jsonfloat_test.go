package jsonfloat

import (
	"encoding/json"
	"math"
	"testing"
)

// TestRoundTrip: every float, finite or not, encodes and reads back to
// itself, and the non-finite ones are spelled as strings.
func TestRoundTrip(t *testing.T) {
	for _, c := range []struct {
		v    float64
		want string
	}{
		{0.42, `0.42`}, {0, `0`}, {-3, `-3`},
		{math.NaN(), `"NaN"`}, {math.Inf(1), `"+Inf"`}, {math.Inf(-1), `"-Inf"`},
	} {
		b, err := json.Marshal(Float(c.v))
		if err != nil {
			t.Fatalf("Marshal(%v): %v", c.v, err)
		}
		if string(b) != c.want {
			t.Fatalf("Marshal(%v) = %s, want %s", c.v, b, c.want)
		}
		var got Float
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("Unmarshal(%s): %v", b, err)
		}
		if g := float64(got); g != c.v && !(math.IsNaN(g) && math.IsNaN(c.v)) {
			t.Fatalf("round trip of %v gave %v", c.v, g)
		}
	}
}

// TestUnmarshalRejects: a string that is no float, and a non-number, fail.
func TestUnmarshalRejects(t *testing.T) {
	for _, in := range []string{`"abc"`, `true`, `{}`} {
		var f Float
		if err := json.Unmarshal([]byte(in), &f); err == nil {
			t.Fatalf("Unmarshal(%s) = %v, want an error", in, float64(f))
		}
	}
}
