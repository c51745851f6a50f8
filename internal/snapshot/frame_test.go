package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"runtime"
	"slices"
	"testing"
)

// header encodes a frame header followed by body fields, with no
// further body and no trailer: what a forged count looks like.
func header(magic uint32, fields ...int64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, magic)
	b = binary.LittleEndian.AppendUint32(b, formatVersion)
	for _, f := range fields {
		b = binary.LittleEndian.AppendUint64(b, uint64(f))
	}
	return b
}

// A header whose count promises gigabytes, followed by nothing, must
// fail on truncation without allocating what the count claims.
func TestForgedCountsDoNotAllocate(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		read func(io.Reader) error
	}{
		{"memory image", header(MagicMemory, 1<<32, 0, 0), // 32 GiB of tags
			func(r io.Reader) error { _, err := ReadMemoryImage(r); return err }},
		{"offsets", header(MagicOffsets, 1<<30), // 16 GiB of groups
			func(r io.Reader) error { _, err := ReadOffsetsWS(r); return err }},
		{"paged", header(MagicPaged, 1<<30), // 8 GiB of pages
			func(r io.Reader) error { _, err := ReadPagedWS(r); return err }},
		{"region", header(MagicRegion, 1<<30, 0), // 16 GiB of regions
			func(r io.Reader) error { _, err := ReadRegionWS(r); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.read(bytes.NewReader(c.data))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%d-byte forged header accepted", len(c.data))
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
				t.Fatalf("allocated %d bytes before failing: %v", grew, err)
			}
		})
	}
}

func TestReadSliceGrowsPastOneStep(t *testing.T) {
	want := make([]uint64, 3*maxSliceStep+5)
	for i := range want {
		want[i] = uint64(i) * 7
	}
	var buf bytes.Buffer
	if err := WritePagedWS(&buf, &PagedWS{Pages: make([]int64, len(want)), Tags: want}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPagedWS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Tags, want) {
		t.Fatal("multi-step read drifted")
	}
}

func TestTrailingDataRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteOffsetsWS(&buf, &OffsetsWS{Groups: []Group{{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadOffsetsWS(bytes.NewReader(append(buf.Bytes(), 0))); err == nil {
		t.Fatal("byte after the checksum accepted")
	}
}

func TestUnsupportedVersionRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteOffsetsWS(&buf, &OffsetsWS{}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 2
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	if _, err := ReadOffsetsWS(bytes.NewReader(b)); err == nil {
		t.Fatal("version 2 accepted")
	}
}

// codec pairs an artifact reader with its writer for FuzzArtifacts.
type codec struct {
	name string
	// reencode decodes data and, if the reader accepts it, encodes the
	// result again.
	reencode func(data []byte) (accepted bool, out []byte, err error)
}

func codecOf[T any](name string, read func(io.Reader) (T, error), write func(io.Writer, T) error) codec {
	return codec{name, func(data []byte) (bool, []byte, error) {
		v, err := read(bytes.NewReader(data))
		if err != nil {
			return false, nil, nil
		}
		var buf bytes.Buffer
		err = write(&buf, v)
		return true, buf.Bytes(), err
	}}
}

var codecs = []codec{
	codecOf("memory image", ReadMemoryImage, WriteMemoryImage),
	codecOf("offsets", ReadOffsetsWS, WriteOffsetsWS),
	codecOf("paged", ReadPagedWS, WritePagedWS),
	codecOf("region", ReadRegionWS, WriteRegionWS),
}

// seedArtifacts returns one small valid artifact of each format.
func seedArtifacts(tb testing.TB) [][]byte {
	img := &MemoryImage{NrPages: 4, StatePages: 2, PageTags: []uint64{0, 5, 0, 9}, FreePFNs: []int64{3}}
	writes := []func(io.Writer) error{
		func(w io.Writer) error { return WriteMemoryImage(w, img) },
		func(w io.Writer) error { return WriteOffsetsWS(w, &OffsetsWS{Groups: []Group{{10, 5}, {2, 1}}}) },
		func(w io.Writer) error {
			return WritePagedWS(w, &PagedWS{Pages: []int64{9, 2}, Tags: []uint64{90, 20}})
		},
		func(w io.Writer) error { return WriteRegionWS(w, &RegionWS{Regions: []Group{{0, 4}}, WSPages: 3}) },
	}
	var out [][]byte
	for _, write := range writes {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// FuzzArtifacts feeds arbitrary bytes to every artifact reader. No
// reader may panic, and any input a reader accepts must re-encode to
// exactly the same bytes: the formats have one encoding per value.
func FuzzArtifacts(f *testing.F) {
	for _, valid := range seedArtifacts(f) {
		f.Add(valid)
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)-1] ^= 1 // CRC no longer matches
		f.Add(flipped)
		f.Add(valid[:len(valid)-6]) // truncated body
	}
	f.Add(header(MagicMemory, 1<<32, 0, 0))
	f.Add(header(MagicOffsets, 1<<30))
	f.Add(header(MagicPaged, -1))
	f.Add(header(MagicRegion, 1<<62, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			accepted, out, err := c.reencode(data)
			if !accepted {
				continue
			}
			if err != nil {
				t.Fatalf("%s: accepted input does not re-encode: %v", c.name, err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("%s: re-encoding differs:\n in  %x\n out %x", c.name, data, out)
			}
		}
	})
}
