package checkpoint

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"leashedsgd/internal/faultinject"
)

func midrunMeta(updates int64) Meta {
	m := sampleMeta()
	m.Updates = updates
	m.Seed = 11
	m.RNGState = 0xDEADBEEF
	m.Shards = 4
	m.Tp = 2
	m.MaxUpdates = 5000
	return m
}

func TestResumeMetaRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, midrunMeta(777), []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	meta, _, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := midrunMeta(777)
	if meta != want {
		t.Fatalf("resume meta mangled:\n got %+v\nwant %+v", meta, want)
	}
}

func TestRotationKeepsNewestAndPrunes(t *testing.T) {
	base := filepath.Join(t.TempDir(), "run.ckpt")
	rot := &Rotator{Path: base, Keep: 3}
	for i := int64(0); i < 5; i++ {
		if _, err := rot.Save(midrunMeta(100*i), []float64{float64(i), 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	cs := Candidates(base)
	if len(cs) != 3 {
		t.Fatalf("kept %d rotated files, want 3: %+v", len(cs), cs)
	}
	if cs[0].Seq != 4 || cs[2].Seq != 2 {
		t.Fatalf("wrong retention window: %+v", cs)
	}
	meta, params, file, err := LoadNewest(base)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Updates != 400 || params[0] != 4 || !strings.HasSuffix(file, ".000004") {
		t.Fatalf("newest = %s meta.Updates=%d params[0]=%v", file, meta.Updates, params[0])
	}
}

func TestLoadNewestSkipsCorruptNewest(t *testing.T) {
	base := filepath.Join(t.TempDir(), "run.ckpt")
	rot := &Rotator{Path: base}
	for i := int64(0); i < 3; i++ {
		if _, err := rot.Save(midrunMeta(100*i), []float64{float64(i), 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the newest file mid-parameters.
	newest := Candidates(base)[0].File
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-12] ^= 0xff
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	meta, _, file, err := LoadNewest(base)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Updates != 100 || !strings.HasSuffix(file, ".000001") {
		t.Fatalf("fell back to %s (Updates=%d), want .000001 with 100", file, meta.Updates)
	}
}

func TestLoadNewestFallsBackToBarePath(t *testing.T) {
	base := filepath.Join(t.TempDir(), "model.ckpt")
	m := sampleMeta()
	m.Dim = 2
	if err := Save(base, m, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	_, _, file, err := LoadNewest(base)
	if err != nil || file != base {
		t.Fatalf("file=%q err=%v", file, err)
	}
	if _, _, _, err := LoadNewest(filepath.Join(t.TempDir(), "none.ckpt")); err == nil {
		t.Fatal("LoadNewest with nothing on disk succeeded")
	}
}

// A save that tears partway through the temp file must fail, clean up its
// temp file, and leave the previous rotated checkpoint loadable — the
// torn-write half of the durability satellite.
func TestTornWritePreservesPreviousCheckpoint(t *testing.T) {
	base := filepath.Join(t.TempDir(), "run.ckpt")
	rot := &Rotator{Path: base}
	if _, err := rot.Save(midrunMeta(100), []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	rot.WrapWriter = func(w io.Writer) io.Writer { return faultinject.FailAfterWriter(w, 16) }
	if _, err := rot.Save(midrunMeta(200), []float64{5, 6, 7, 8}); err == nil {
		t.Fatal("torn save reported success")
	}
	rot.WrapWriter = nil
	if files, _ := filepath.Glob(base + "*.tmp"); len(files) != 0 {
		t.Fatalf("temp files left behind: %v", files)
	}
	meta, params, _, err := LoadNewest(base)
	if err != nil {
		t.Fatalf("previous checkpoint lost after torn save: %v", err)
	}
	if meta.Updates != 100 || params[0] != 1 {
		t.Fatalf("recovered wrong checkpoint: Updates=%d params=%v", meta.Updates, params)
	}
	// The rotator keeps going after a torn save: the next save lands on a
	// fresh sequence number and becomes the newest.
	if _, err := rot.Save(midrunMeta(300), []float64{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if meta, _, _, _ := LoadNewest(base); meta.Updates != 300 {
		t.Fatalf("post-tear save not newest: Updates=%d", meta.Updates)
	}
}

// A fresh Rotator pointed at a directory with prior rotated files continues
// the sequence instead of overwriting the newest — the resume-then-keep-
// checkpointing path.
func TestRotatorResumesSequence(t *testing.T) {
	base := filepath.Join(t.TempDir(), "run.ckpt")
	rot := &Rotator{Path: base}
	for i := int64(0); i < 2; i++ {
		if _, err := rot.Save(midrunMeta(100*i), []float64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	rot2 := &Rotator{Path: base}
	file, err := rot2.Save(midrunMeta(999), []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(file, ".000002") {
		t.Fatalf("resumed rotator wrote %s, want .000002", file)
	}
}

func TestHostileDlenFailsFast(t *testing.T) {
	var hdr bytes.Buffer
	hdr.Write(magic[:])
	binary.Write(&hdr, binary.LittleEndian, uint32(MaxMetaLen+1))
	if _, _, err := Read(&hdr); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("hostile dlen accepted: %v", err)
	}
}

func TestHostileDimFailsBeforeAllocating(t *testing.T) {
	// A valid header + meta claiming a giant Dim, with no parameter bytes
	// behind it: Read must fail on the truncated stream having decoded at
	// most the bytes actually supplied, not allocate Dim floats up front.
	metaJSON := []byte(`{"arch":"x","dim":67108864,"saved_at":"2026-01-01T00:00:00Z"}`)
	var buf bytes.Buffer
	buf.Write(magic[:])
	binary.Write(&buf, binary.LittleEndian, uint32(len(metaJSON)))
	buf.Write(metaJSON)
	if _, _, err := Read(&buf); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v", err)
	}
	// One past the cap is rejected outright.
	metaJSON = []byte(`{"arch":"x","dim":67108865,"saved_at":"2026-01-01T00:00:00Z"}`)
	buf.Reset()
	buf.Write(magic[:])
	binary.Write(&buf, binary.LittleEndian, uint32(len(metaJSON)))
	buf.Write(metaJSON)
	if _, _, err := Read(&buf); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("over-cap dim accepted: %v", err)
	}
}

func TestTrailingDataRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleMeta(), []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0)
	if _, _, err := Read(&buf); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}
