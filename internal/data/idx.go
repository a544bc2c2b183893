// Package data provides the dataset substrate for the experiments: the IDX
// binary format MNIST ships in, a synthetic MNIST-like generator used when
// the real files are unavailable (this repository is built offline — see
// docs/architecture.md, "Datasets", for why the substitution preserves the
// evaluation), and mini-batch sampling.
package data

import (
	"encoding/binary"
	"fmt"
	"io"
)

// IDX magic type codes (third byte of the magic number).
const (
	idxTypeUint8 = 0x08
)

// Header plausibility bounds: IDX dimension fields are attacker-controlled
// 32-bit values, so the readers must reject oversized claims *before*
// allocating and must never trust them for up-front allocation sizes (a
// 20-byte truncated file must not make us reserve gigabytes).
const (
	// maxIDXItems bounds the item count of one file (MNIST: 60,000).
	maxIDXItems = 1 << 24
	// maxIDXPixels bounds h×w of one image (MNIST: 784). Each factor is
	// checked first so the product cannot overflow int.
	maxIDXPixels = 1 << 20
)

// WriteIDXImages writes images as an IDX3 uint8 tensor (count, h, w),
// the exact format of train-images-idx3-ubyte. Pixels must be in [0,1] and
// are quantized to bytes.
func WriteIDXImages(w io.Writer, images [][]float64, h, wid int) error {
	if err := binary.Write(w, binary.BigEndian, []byte{0, 0, idxTypeUint8, 3}); err != nil {
		return err
	}
	dims := []uint32{uint32(len(images)), uint32(h), uint32(wid)}
	if err := binary.Write(w, binary.BigEndian, dims); err != nil {
		return err
	}
	buf := make([]byte, h*wid)
	for i, img := range images {
		if len(img) != h*wid {
			return fmt.Errorf("data: image %d has %d pixels, want %d", i, len(img), h*wid)
		}
		for j, p := range img {
			switch {
			case p <= 0:
				buf[j] = 0
			case p >= 1:
				buf[j] = 255
			default:
				buf[j] = byte(p*255 + 0.5)
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// WriteIDXLabels writes labels as an IDX1 uint8 vector, the format of
// train-labels-idx1-ubyte.
func WriteIDXLabels(w io.Writer, labels []int) error {
	if err := binary.Write(w, binary.BigEndian, []byte{0, 0, idxTypeUint8, 1}); err != nil {
		return err
	}
	if err := binary.Write(w, binary.BigEndian, uint32(len(labels))); err != nil {
		return err
	}
	buf := make([]byte, len(labels))
	for i, l := range labels {
		if l < 0 || l > 255 {
			return fmt.Errorf("data: label %d out of byte range", l)
		}
		buf[i] = byte(l)
	}
	_, err := w.Write(buf)
	return err
}

// ReadIDXImages parses an IDX3 uint8 image tensor, returning the images as
// float64 pixel slices scaled to [0,1] plus the image height and width.
func ReadIDXImages(r io.Reader) (images [][]float64, h, w int, err error) {
	var magic [4]byte
	if _, err = io.ReadFull(r, magic[:]); err != nil {
		return nil, 0, 0, fmt.Errorf("data: reading IDX magic: %w", err)
	}
	if magic[0] != 0 || magic[1] != 0 || magic[2] != idxTypeUint8 || magic[3] != 3 {
		return nil, 0, 0, fmt.Errorf("data: bad IDX3 magic %v", magic)
	}
	var dims [3]uint32
	if err = binary.Read(r, binary.BigEndian, &dims); err != nil {
		return nil, 0, 0, fmt.Errorf("data: reading IDX dims: %w", err)
	}
	count, hh, ww := int(dims[0]), int(dims[1]), int(dims[2])
	// Both guards are needed: the per-factor caps keep the product within
	// int64 even for (2^32-1)×(2^32-1) claims, and the int64 product keeps
	// 2^20×2^20 claims from wrapping a 32-bit int.
	if hh <= 0 || ww <= 0 || hh > maxIDXPixels || ww > maxIDXPixels ||
		int64(hh)*int64(ww) > maxIDXPixels {
		return nil, 0, 0, fmt.Errorf("data: implausible IDX image dims %dx%d", hh, ww)
	}
	if count < 0 || count > maxIDXItems {
		return nil, 0, 0, fmt.Errorf("data: implausible IDX image count %d", count)
	}
	// Grow incrementally: the count claim sizes the loop, never a bulk
	// allocation, so truncated input fails after reading at most one image.
	images = make([][]float64, 0, min(count, 4096))
	buf := make([]byte, hh*ww)
	for i := 0; i < count; i++ {
		if _, err = io.ReadFull(r, buf); err != nil {
			return nil, 0, 0, fmt.Errorf("data: reading image %d of %d: %w", i, count, err)
		}
		img := make([]float64, hh*ww)
		for j, b := range buf {
			img[j] = float64(b) / 255
		}
		images = append(images, img)
	}
	return images, hh, ww, nil
}

// ReadIDXLabels parses an IDX1 uint8 label vector.
func ReadIDXLabels(r io.Reader) ([]int, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("data: reading IDX magic: %w", err)
	}
	if magic[0] != 0 || magic[1] != 0 || magic[2] != idxTypeUint8 || magic[3] != 1 {
		return nil, fmt.Errorf("data: bad IDX1 magic %v", magic)
	}
	var rawCount uint32
	if err := binary.Read(r, binary.BigEndian, &rawCount); err != nil {
		return nil, fmt.Errorf("data: reading IDX count: %w", err)
	}
	count := int(rawCount)
	if count > maxIDXItems {
		return nil, fmt.Errorf("data: implausible IDX label count %d", count)
	}
	// Chunked reads keep the allocation proportional to the bytes actually
	// present, not to the header's claim.
	labels := make([]int, 0, min(count, 1<<16))
	buf := make([]byte, 1<<16)
	for remaining := count; remaining > 0; {
		n := min(remaining, len(buf))
		if _, err := io.ReadFull(r, buf[:n]); err != nil {
			return nil, fmt.Errorf("data: reading labels (%d of %d left): %w", remaining, count, err)
		}
		for _, b := range buf[:n] {
			labels = append(labels, int(b))
		}
		remaining -= n
	}
	return labels, nil
}
