// Package snapshot defines the on-disk artifacts of the system: the
// snapshot memory image and the three working-set formats the
// evaluated prefetchers use.
//
//   - MemoryImage (.snapmem): the VM sandbox's guest memory serialized
//     after function initialization and pre-warming. Page contents are
//     represented by 8-byte tags (0 = zero page) rather than 4KiB
//     payloads — see DESIGN.md §2 — plus the guest allocator metadata
//     Faast relies on.
//   - OffsetsWS (.snapbpf-ws): SnapBPF's working set — *only* grouped
//     page offsets, sorted by earliest access; no page data (§3.1).
//   - PagedWS (.reap-ws): REAP/Faast working sets — page offsets plus
//     the page contents serialized at record time (§2.1).
//   - RegionWS (.faasnap-ws): FaaSnap's coalesced working-set regions
//     including gap pages, with contents (§2.1).
//
// These formats and internal/trace's .trace share one frame (Writer,
// Reader): a magic number, a version and a CRC32, so corrupt artifacts
// are rejected rather than silently mis-prefetched, and a length field
// is never trusted for an allocation ahead of the data.
package snapshot

import (
	"fmt"
	"io"
)

// Group is a contiguous page range [Start, Start+NPages) in the
// snapshot memory file.
type Group struct {
	Start  int64
	NPages int64
}

// End returns one past the last page of the group.
func (g Group) End() int64 { return g.Start + g.NPages }

// MemoryImage is a serialized guest memory snapshot.
type MemoryImage struct {
	// NrPages is the guest memory size in pages; the on-disk memory
	// file conceptually holds NrPages*4KiB of data.
	NrPages int64

	// StatePages is the initialized prefix holding kernel + function
	// state at snapshot time.
	StatePages int64

	// PageTags holds one content tag per page; tag 0 means the page
	// is all zeroes (what FaaSnap's zero-scan detects).
	PageTags []uint64

	// FreePFNs lists the frames that were in the guest buddy
	// allocator's free pool at snapshot time (Faast's metadata).
	FreePFNs []int64
}

// Validate checks internal consistency.
func (m *MemoryImage) Validate() error {
	if m.NrPages <= 0 {
		return fmt.Errorf("snapshot: non-positive page count %d", m.NrPages)
	}
	if m.StatePages < 0 || m.StatePages > m.NrPages {
		return fmt.Errorf("snapshot: state pages %d out of range (%d total)", m.StatePages, m.NrPages)
	}
	if int64(len(m.PageTags)) != m.NrPages {
		return fmt.Errorf("snapshot: %d tags for %d pages", len(m.PageTags), m.NrPages)
	}
	for _, pfn := range m.FreePFNs {
		if pfn < 0 || pfn >= m.NrPages {
			return fmt.Errorf("snapshot: free pfn %d out of range", pfn)
		}
	}
	return nil
}

// ZeroPages returns the number of zero-tagged pages.
func (m *MemoryImage) ZeroPages() int64 {
	var n int64
	for _, t := range m.PageTags {
		if t == 0 {
			n++
		}
	}
	return n
}

// WriteMemoryImage serializes m to w.
func WriteMemoryImage(w io.Writer, m *MemoryImage) error {
	if err := m.Validate(); err != nil {
		return err
	}
	fw := NewWriter(w, MagicMemory)
	fw.Put(m.NrPages, m.StatePages, int64(len(m.FreePFNs)), m.PageTags, m.FreePFNs)
	return fw.Close()
}

// ReadMemoryImage parses a memory image from r, verifying the CRC.
func ReadMemoryImage(r io.Reader) (*MemoryImage, error) {
	fr, err := NewReader(r, MagicMemory, "memory image")
	if err != nil {
		return nil, err
	}
	m := &MemoryImage{}
	var nrFree int64
	if err := fr.Get(&m.NrPages, &m.StatePages, &nrFree); err != nil {
		return nil, err
	}
	if m.PageTags, err = ReadSlice[uint64](fr, m.NrPages); err != nil {
		return nil, err
	}
	if m.FreePFNs, err = ReadSlice[int64](fr, nrFree); err != nil {
		return nil, err
	}
	if err := fr.Close(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// SaveFile writes the image to path.
func (m *MemoryImage) SaveFile(path string) error {
	return Save(path, func(w io.Writer) error { return WriteMemoryImage(w, m) })
}

// LoadMemoryImage reads an image from path.
func LoadMemoryImage(path string) (*MemoryImage, error) {
	return Load(path, ReadMemoryImage)
}
