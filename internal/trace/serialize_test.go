package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

func sampleTrace() *Trace {
	return &Trace{Ops: []Op{
		{Kind: OpAccess, Page: 12345, Write: true},
		{Kind: OpCompute, Gap: 250 * time.Microsecond},
		{Kind: OpAlloc, Handle: 3, NPages: 64},
		{Kind: OpTouch, Handle: 3, Offset: 63, Write: true},
		{Kind: OpFree, Handle: 3},
		{Kind: OpAccess, Page: 1 << 40},
	}}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != len(tr.Ops) {
		t.Fatalf("ops = %d", len(got.Ops))
	}
	for i := range tr.Ops {
		if got.Ops[i] != tr.Ops[i] {
			t.Fatalf("op %d: %+v != %+v", i, got.Ops[i], tr.Ops[i])
		}
	}
}

func TestTraceChecksum(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().Write(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[20] ^= 0xff
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Fatal("corrupted trace accepted")
	}
}

func TestTraceRejectsInvalidOnWrite(t *testing.T) {
	bad := &Trace{Ops: []Op{{Kind: OpFree, Handle: 9}}}
	var buf bytes.Buffer
	if err := bad.Write(&buf); err == nil {
		t.Fatal("invalid trace serialized")
	}
}

func TestTraceTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes()[:30])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestTraceBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.trace")
	if err := sampleTrace().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != 6 {
		t.Fatalf("ops = %d", len(got.Ops))
	}
}

func TestGapMicrosecondGranularity(t *testing.T) {
	tr := &Trace{Ops: []Op{{Kind: OpCompute, Gap: 1500 * time.Nanosecond}}}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Sub-microsecond precision is dropped by the format.
	if got.Ops[0].Gap != 1*time.Microsecond {
		t.Fatalf("gap = %v", got.Ops[0].Gap)
	}
}

// A header promising 2^32-1 ops (~100 GiB of records) with no body
// must fail on truncation without allocating what the count claims.
func TestTraceForgedCount(t *testing.T) {
	var data []byte
	for _, v := range []uint32{Magic, 1, math.MaxUint32} {
		data = binary.LittleEndian.AppendUint32(data, v)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged op count accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Fatalf("allocated %d bytes before failing: %v", grew, err)
	}
}
