package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"snapbpf/internal/snapshot"
)

// On-disk trace format (.trace): the snapshot package's artifact frame
// around a uint32 op count and fixed 24-byte op records. Traces are
// shareable workload artifacts: a recorded production invocation can
// be replayed against any prefetching scheme.

const (
	// Magic identifies a .trace artifact.
	Magic        = 0x54524345 // "TRCE"
	opRecordSize = 24
)

// Write serializes the trace to w.
func (t *Trace) Write(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("trace: refusing to write invalid trace: %w", err)
	}
	recs := make([]byte, len(t.Ops)*opRecordSize)
	for i := range t.Ops {
		op, rec := &t.Ops[i], recs[i*opRecordSize:]
		rec[0] = byte(op.Kind)
		if op.Write {
			rec[1] = 1
		}
		// rec[2:4] is reserved and stays zero.
		binary.LittleEndian.PutUint32(rec[4:], uint32(op.Handle))
		binary.LittleEndian.PutUint64(rec[8:], uint64(op.Page))
		binary.LittleEndian.PutUint32(rec[16:], uint32(op.NPages))
		// Offset and Gap share the final word: Gap only appears on
		// compute ops, Offset only on touches.
		if op.Kind == OpCompute {
			binary.LittleEndian.PutUint32(rec[20:], uint32(op.Gap/time.Microsecond))
		} else {
			binary.LittleEndian.PutUint32(rec[20:], uint32(op.Offset))
		}
	}
	fw := snapshot.NewWriter(w, Magic)
	fw.Put(uint32(len(t.Ops)), recs)
	return fw.Close()
}

// Read parses a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	fr, err := snapshot.NewReader(r, Magic, "trace")
	if err != nil {
		return nil, err
	}
	var n uint32
	if err := fr.Get(&n); err != nil {
		return nil, err
	}
	recs, err := snapshot.ReadSlice[byte](fr, int64(n)*opRecordSize)
	if err != nil {
		return nil, err
	}
	if err := fr.Close(); err != nil {
		return nil, err
	}
	t := &Trace{Ops: make([]Op, n)}
	for i := range t.Ops {
		op, rec := &t.Ops[i], recs[i*opRecordSize:]
		op.Kind = OpKind(rec[0])
		op.Write = rec[1] != 0
		op.Handle = int32(binary.LittleEndian.Uint32(rec[4:]))
		op.Page = int64(binary.LittleEndian.Uint64(rec[8:]))
		op.NPages = int32(binary.LittleEndian.Uint32(rec[16:]))
		last := binary.LittleEndian.Uint32(rec[20:])
		if op.Kind == OpCompute {
			op.Gap = time.Duration(last) * time.Microsecond
		} else {
			op.Offset = int32(last)
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: decoded trace invalid: %w", err)
	}
	return t, nil
}

// SaveFile writes the trace to path.
func (t *Trace) SaveFile(path string) error { return snapshot.Save(path, t.Write) }

// LoadFile reads a trace from path.
func LoadFile(path string) (*Trace, error) { return snapshot.Load(path, Read) }
