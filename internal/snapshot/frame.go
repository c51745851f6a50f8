package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"slices"
)

// Every artifact shares one frame: a uint32 magic, a uint32 format
// version, the body, then a CRC32 (IEEE) of everything before it. All
// integers are little-endian. Nothing may follow the CRC.

// Artifact magics.
const (
	MagicMemory  = 0x534e504d // "SNPM"
	MagicOffsets = 0x53424657 // "SBFW"
	MagicPaged   = 0x52454157 // "REAW"
	MagicRegion  = 0x46534e57 // "FSNW"

	formatVersion = 1

	// maxSliceStep bounds how many elements ReadSlice allocates ahead
	// of the data, so a forged count fails on truncation instead of
	// allocating what it claims.
	maxSliceStep = 1 << 16
)

// Writer writes one framed artifact. The first error sticks: Put
// becomes a no-op and Close returns it.
type Writer struct {
	w   io.Writer // dst teed into crc
	dst io.Writer
	crc hash.Hash32
	err error
}

// NewWriter starts a frame with magic on w.
func NewWriter(w io.Writer, magic uint32) *Writer {
	crc := crc32.NewIEEE()
	fw := &Writer{w: io.MultiWriter(w, crc), dst: w, crc: crc}
	fw.Put(magic, uint32(formatVersion))
	return fw
}

// Put appends fixed-size values, or slices of them, to the body.
func (fw *Writer) Put(vs ...any) {
	for _, v := range vs {
		if fw.err == nil {
			fw.err = binary.Write(fw.w, binary.LittleEndian, v)
		}
	}
}

// Close writes the CRC trailer.
func (fw *Writer) Close() error {
	if fw.err != nil {
		return fw.err
	}
	return binary.Write(fw.dst, binary.LittleEndian, fw.crc.Sum32())
}

// Reader reads one framed artifact: NewReader checks the header, Get
// and ReadSlice decode the body, Close checks the CRC trailer.
type Reader struct {
	r    io.Reader // src teed into crc
	src  io.Reader
	crc  hash.Hash32
	what string
}

// NewReader reads the frame header from r and checks it against magic;
// what names the artifact in errors.
func NewReader(r io.Reader, magic uint32, what string) (*Reader, error) {
	crc := crc32.NewIEEE()
	fr := &Reader{r: io.TeeReader(r, crc), src: r, crc: crc, what: what}
	var hdr [2]uint32
	if err := fr.Get(&hdr); err != nil {
		return nil, err
	}
	if hdr[0] != magic {
		return nil, fmt.Errorf("snapshot: bad magic %#x for %s (want %#x)", hdr[0], what, magic)
	}
	if hdr[1] != formatVersion {
		return nil, fmt.Errorf("snapshot: unsupported %s version %d", what, hdr[1])
	}
	return fr, nil
}

// Get decodes fixed-size values from the body into the pointers vs.
func (fr *Reader) Get(vs ...any) error {
	for _, v := range vs {
		if err := binary.Read(fr.r, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("snapshot: truncated %s: %w", fr.what, err)
		}
	}
	return nil
}

// ReadSlice decodes n fixed-size elements from the body. The result
// grows as data arrives, at most maxSliceStep elements at a time.
func ReadSlice[T any](fr *Reader, n int64) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("snapshot: negative element count %d in %s", n, fr.what)
	}
	out := make([]T, 0, min(n, maxSliceStep))
	for int64(len(out)) < n {
		step := int(min(n-int64(len(out)), maxSliceStep))
		out = slices.Grow(out, step)
		if err := fr.Get(out[len(out) : len(out)+step]); err != nil {
			return nil, err
		}
		out = out[:len(out)+step]
	}
	return out, nil
}

// Close reads the CRC trailer, checks it, and rejects trailing data.
func (fr *Reader) Close() error {
	sum := fr.crc.Sum32()
	var want uint32
	if err := binary.Read(fr.src, binary.LittleEndian, &want); err != nil {
		return fmt.Errorf("snapshot: missing %s checksum: %w", fr.what, err)
	}
	if sum != want {
		return fmt.Errorf("snapshot: %s checksum mismatch (%#x != %#x)", fr.what, sum, want)
	}
	if _, err := io.ReadFull(fr.src, make([]byte, 1)); err != io.EOF {
		return fmt.Errorf("snapshot: trailing data after %s checksum", fr.what)
	}
	return nil
}

// Save writes an artifact to path through write.
func Save(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load decodes the artifact at path with read.
func Load[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return read(bufio.NewReader(f))
}
