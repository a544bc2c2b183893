// Package jsonfloat is the repository's one rule for non-finite floats in
// JSON. encoding/json refuses NaN and ±Inf, and a crashed run's loss is
// exactly such a value, so a Float writes them as the JSON strings "NaN",
// "+Inf" and "-Inf" (strconv's spelling) and every finite value as a plain
// JSON number. Reading accepts both forms back.
package jsonfloat

import (
	"encoding/json"
	"math"
	"strconv"
)

// Float is a float64 that always encodes.
type Float float64

// MarshalJSON writes a finite value as a number and a non-finite one as
// its strconv string.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte(`"` + strconv.FormatFloat(v, 'g', -1, 64) + `"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON reads a JSON number, or a string strconv.ParseFloat
// accepts ("NaN", "+Inf", "-Inf").
func (f *Float) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return err
		}
		*f = Float(v)
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}
