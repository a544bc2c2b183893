// Package checkpoint persists trained parameter vectors to disk and loads
// them back, with integrity checking — both the final model a downstream
// user keeps and the rotated mid-run checkpoints the trainer writes on
// cadence so a crashed run can resume (see Rotator / LoadNewest).
//
// Format (little-endian):
//
//	magic   [8]byte  "LSHSGD\x00\x01"
//	dlen    uint32   length of the JSON metadata blob
//	meta    []byte   JSON: architecture string, dimension, training info
//	params  [d]float64
//	crc     uint32   IEEE CRC-32 of everything above
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"leashedsgd/internal/jsonfloat"
)

var magic = [8]byte{'L', 'S', 'H', 'S', 'G', 'D', 0, 1}

const (
	// MaxMetaLen caps the JSON metadata section. A checkpoint's meta is a
	// few hundred bytes; a dlen anywhere near this bound is hostile or
	// corrupt, and Read fails fast instead of allocating for it — the same
	// alloc-bomb hardening the IDX header path applies.
	MaxMetaLen = 1 << 20
	// MaxDim caps the parameter count Read will decode (64M float64s,
	// 512 MiB — far above any model this library trains). Combined with the
	// chunked parameter decode, a hostile Dim never drives an allocation
	// larger than the bytes the reader actually supplies.
	MaxDim = 1 << 26
)

// Meta describes the checkpointed model. The resume-state fields (Seed
// through MaxUpdates) are populated only by mid-run checkpoints; final model
// checkpoints leave them zero and they are omitted from the JSON. A crashed
// run's non-finite FinalLoss is written as "NaN", "+Inf" or "-Inf"
// (jsonfloat). Files that still carry the retired "auto_tune" key load as
// before: the decoder ignores it.
type Meta struct {
	Arch      string          `json:"arch"`
	Dim       int             `json:"dim"`
	Algo      string          `json:"algo,omitempty"`
	FinalLoss jsonfloat.Float `json:"final_loss,omitempty"`
	Updates   int64           `json:"updates,omitempty"`
	SavedAt   time.Time       `json:"saved_at"`

	// Resume state: enough to restart the run where it left off.
	Seed       uint64 `json:"seed,omitempty"`        // the run's original Config.Seed
	RNGState   uint64 `json:"rng_state,omitempty"`   // derived seed for the resumed run's sample streams
	Shards     int    `json:"shards,omitempty"`      // shard count S at save time
	Tp         int    `json:"tp,omitempty"`          // persistence bound at save time (-1 = unbounded)
	MaxUpdates int64  `json:"max_updates,omitempty"` // the run's original total budget
}

// Write serializes the checkpoint to w.
func Write(w io.Writer, meta Meta, params []float64) error {
	if meta.Dim == 0 {
		meta.Dim = len(params)
	}
	if meta.Dim != len(params) {
		return fmt.Errorf("checkpoint: meta.Dim %d != len(params) %d", meta.Dim, len(params))
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding meta: %w", err)
	}
	var buf bytes.Buffer
	buf.Write(magic[:])
	if err := binary.Write(&buf, binary.LittleEndian, uint32(len(metaJSON))); err != nil {
		return err
	}
	buf.Write(metaJSON)
	bits := make([]byte, 8)
	for _, v := range params {
		binary.LittleEndian.PutUint64(bits, math.Float64bits(v))
		buf.Write(bits)
	}
	crc := crc32.ChecksumIEEE(buf.Bytes())
	if err := binary.Write(&buf, binary.LittleEndian, crc); err != nil {
		return err
	}
	_, err = w.Write(buf.Bytes())
	return err
}

// Read parses a checkpoint from r, verifying magic and CRC. It streams: the
// header is validated before the metadata is read, the metadata length is
// capped, and the parameter section is decoded in bounded chunks sized by
// what the reader actually delivers — a hostile header fails fast instead of
// driving a giant allocation.
func Read(r io.Reader) (Meta, []float64, error) {
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)

	var hdr [12]byte
	if _, err := io.ReadFull(tr, hdr[:]); err != nil {
		return Meta{}, nil, fmt.Errorf("checkpoint: truncated header: %w", err)
	}
	if !bytes.Equal(hdr[:8], magic[:]) {
		return Meta{}, nil, fmt.Errorf("checkpoint: bad magic %q", hdr[:8])
	}
	metaLen := binary.LittleEndian.Uint32(hdr[8:12])
	if metaLen > MaxMetaLen {
		return Meta{}, nil, fmt.Errorf("checkpoint: meta length %d exceeds cap %d", metaLen, MaxMetaLen)
	}
	metaJSON := make([]byte, metaLen)
	if _, err := io.ReadFull(tr, metaJSON); err != nil {
		return Meta{}, nil, fmt.Errorf("checkpoint: truncated meta: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return Meta{}, nil, fmt.Errorf("checkpoint: decoding meta: %w", err)
	}
	if meta.Dim < 0 || meta.Dim > MaxDim {
		return Meta{}, nil, fmt.Errorf("checkpoint: dimension %d outside [0, %d]", meta.Dim, MaxDim)
	}

	params := make([]float64, 0, min(meta.Dim, 8192))
	var chunk [64 * 1024]byte
	for remaining := meta.Dim * 8; remaining > 0; {
		n := min(len(chunk), remaining)
		if _, err := io.ReadFull(tr, chunk[:n]); err != nil {
			return Meta{}, nil, fmt.Errorf("checkpoint: truncated parameters at %d/%d: %w",
				len(params), meta.Dim, err)
		}
		for i := 0; i < n; i += 8 {
			params = append(params, math.Float64frombits(binary.LittleEndian.Uint64(chunk[i:])))
		}
		remaining -= n
	}

	// The stored CRC covers everything above it, so it is read from r
	// directly (not through the tee).
	sum := crc.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return Meta{}, nil, fmt.Errorf("checkpoint: truncated CRC: %w", err)
	}
	if want := binary.LittleEndian.Uint32(tail[:]); sum != want {
		return Meta{}, nil, fmt.Errorf("checkpoint: CRC mismatch (file corrupt): %08x != %08x", sum, want)
	}
	if n, _ := r.Read(tail[:1]); n > 0 {
		return Meta{}, nil, fmt.Errorf("checkpoint: trailing data after CRC")
	}
	return meta, params, nil
}

// Save writes the checkpoint to path atomically (temp file + fsync +
// rename), so a crash at any point leaves either the previous file or the
// complete new one — never a renamed-but-empty checkpoint.
func Save(path string, meta Meta, params []float64) error {
	return save(path, meta, params, nil)
}

// save is Save with an optional writer wrapper — the fault-injection hook
// that lets the torn-write tests tear the temp-file stream mid-write.
func save(path string, meta Meta, params []float64, wrap func(io.Writer) io.Writer) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	var w io.Writer = f
	if wrap != nil {
		w = wrap(f)
	}
	if err := Write(w, meta, params); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// Durability order: flush file data to stable storage BEFORE the rename
	// publishes the name, so a machine crash cannot expose a renamed file
	// with unwritten contents.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir best-effort fsyncs the directory so the rename itself is durable.
// Errors are ignored: not every filesystem supports directory fsync, and the
// file-data sync above already covers the dangerous failure mode.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Load reads the checkpoint at path.
func Load(path string) (Meta, []float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, nil, err
	}
	defer f.Close()
	return Read(f)
}
