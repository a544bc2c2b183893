package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"
)

// validCheckpointBytes serializes a well-formed checkpoint via the writer.
func validCheckpointBytes(tb testing.TB, d int) []byte {
	tb.Helper()
	params := make([]float64, d)
	for i := range params {
		params[i] = float64(i) - 1.5
	}
	var buf bytes.Buffer
	if err := Write(&buf, Meta{Arch: "fuzz-arch", Dim: d}, params); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadCheckpoint mirrors FuzzReadIDX for the checkpoint reader: arbitrary
// bytes must return (possibly with an error) without panicking, and any
// accepted checkpoint must be internally consistent — the header/CRC
// validation either rejects the input or yields a meta whose dimension
// matches the decoded parameter count. The corpus seeds a valid file plus the
// interesting malformed shapes (truncations at every section boundary, CRC
// corruption, and a metadata-length bomb).
func FuzzReadCheckpoint(f *testing.F) {
	good := validCheckpointBytes(f, 8)
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:8])            // magic only
	f.Add(good[:12])           // magic + meta length, no meta
	f.Add(good[:len(good)-4])  // CRC stripped
	f.Add(good[:len(good)-11]) // truncated mid-parameters
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)/2] ^= 0xff // body flip: CRC must catch it
	f.Add(corrupt)
	// Metadata-length bomb: claims 4 GiB of JSON in a 16-byte file.
	bomb := append([]byte(nil), good[:8]...)
	bomb = binary.LittleEndian.AppendUint32(bomb, 0xFFFFFFFF)
	bomb = append(bomb, 0, 0, 0, 0)
	f.Add(bomb)
	// A mid-run checkpoint with the full resume-state meta (RNG stream,
	// shard count, persistence bound, budget), written by hand as a run
	// with an (S, Tp) controller wrote it: "auto_tune" is a retired key the
	// reader must ignore.
	midrun := func() []byte {
		meta := `{"arch":"fuzz-arch","dim":4,"algo":"LSH","updates":321,"saved_at":"2026-01-02T03:04:05Z",` +
			`"seed":9,"rng_state":43981,"shards":4,"tp":2,"auto_tune":true,"max_updates":1000}`
		b := binary.LittleEndian.AppendUint32(magic[:], uint32(len(meta)))
		b = append(b, meta...)
		for _, v := range []float64{0.5, -0.5, 1, 2} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	}()
	if _, _, err := Read(bytes.NewReader(midrun)); err != nil {
		f.Fatalf("hand-written mid-run checkpoint rejected: %v", err)
	}
	f.Add(midrun)
	f.Add(midrun[:len(midrun)-6])                    // truncated mid-parameters
	f.Add(append(append([]byte(nil), midrun...), 0)) // trailing byte
	// Dimension bomb: honest dlen, hostile meta.Dim with no params behind it.
	dimBomb := []byte(`{"arch":"x","dim":67108864}`)
	db := append([]byte(nil), good[:8]...)
	db = binary.LittleEndian.AppendUint32(db, uint32(len(dimBomb)))
	db = append(db, dimBomb...)
	f.Add(db)

	f.Fuzz(func(t *testing.T, in []byte) {
		meta, params, err := Read(bytes.NewReader(in))
		if err != nil {
			return
		}
		if meta.Dim != len(params) {
			t.Fatalf("accepted checkpoint with meta.Dim=%d but %d parameters", meta.Dim, len(params))
		}
		// An accepted checkpoint must round-trip through the writer and be
		// accepted again with identical parameters.
		var buf bytes.Buffer
		if err := Write(&buf, meta, params); err != nil {
			t.Fatalf("re-encoding accepted checkpoint: %v", err)
		}
		meta2, params2, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading re-encoded checkpoint: %v", err)
		}
		if meta2.Dim != meta.Dim || len(params2) != len(params) {
			t.Fatalf("round-trip changed shape: %d/%d -> %d/%d",
				meta.Dim, len(params), meta2.Dim, len(params2))
		}
		for i := range params {
			if params2[i] != params[i] && !(params2[i] != params2[i] && params[i] != params[i]) {
				t.Fatalf("round-trip changed param %d: %v -> %v", i, params[i], params2[i])
			}
		}
	})
}
