package snapshot

import (
	"fmt"
	"io"
	"sort"
)

// OffsetsWS is SnapBPF's working-set artifact: the grouped page
// offsets of the snapshot file, in the order prefetching must issue
// them (sorted by the earliest access time of any page in each group,
// §3.1). No page contents are stored — SnapBPF reads pages from the
// snapshot file itself.
type OffsetsWS struct {
	Groups []Group
}

// TotalPages returns the number of working-set pages covered.
func (ws *OffsetsWS) TotalPages() int64 {
	var n int64
	for _, g := range ws.Groups {
		n += g.NPages
	}
	return n
}

// Validate checks group sanity against a snapshot of nrPages pages.
func (ws *OffsetsWS) Validate(nrPages int64) error {
	for i, g := range ws.Groups {
		if g.NPages <= 0 || g.Start < 0 || g.End() > nrPages {
			return fmt.Errorf("snapshot: ws group %d out of range: [%d,%d) of %d", i, g.Start, g.End(), nrPages)
		}
	}
	return nil
}

// PagedWS is the REAP/Faast working-set artifact: individual page
// offsets in first-access order, with the page contents serialized
// alongside (the on-disk file is one page of data per entry).
type PagedWS struct {
	// Pages holds snapshot page indices in first-access order.
	Pages []int64
	// Tags holds the serialized contents (tag representation) of each
	// page, parallel to Pages.
	Tags []uint64
}

// TotalPages returns the number of entries.
func (ws *PagedWS) TotalPages() int64 { return int64(len(ws.Pages)) }

// Validate checks consistency.
func (ws *PagedWS) Validate(nrPages int64) error {
	if len(ws.Pages) != len(ws.Tags) {
		return fmt.Errorf("snapshot: paged ws: %d pages but %d tags", len(ws.Pages), len(ws.Tags))
	}
	for i, pg := range ws.Pages {
		if pg < 0 || pg >= nrPages {
			return fmt.Errorf("snapshot: paged ws entry %d out of range: %d", i, pg)
		}
	}
	return nil
}

// RegionWS is FaaSnap's working-set artifact: coalesced regions of the
// snapshot (working-set runs merged across small gaps), serialized
// with their contents. Gap pages inflate the file — the I/O
// amplification the paper measures with eBPF instrumentation (§2.1).
type RegionWS struct {
	Regions []Group
	// WSPages is the true (uninflated) working-set page count, kept
	// for inflation accounting.
	WSPages int64
}

// TotalPages returns the file size in pages, including gap inflation.
func (ws *RegionWS) TotalPages() int64 {
	var n int64
	for _, g := range ws.Regions {
		n += g.NPages
	}
	return n
}

// Inflation returns file pages per true working-set page (>= 1).
func (ws *RegionWS) Inflation() float64 {
	if ws.WSPages == 0 {
		return 1
	}
	return float64(ws.TotalPages()) / float64(ws.WSPages)
}

// Validate checks regions are sane, sorted and disjoint.
func (ws *RegionWS) Validate(nrPages int64) error {
	for i, g := range ws.Regions {
		if g.NPages <= 0 || g.Start < 0 || g.End() > nrPages {
			return fmt.Errorf("snapshot: region %d out of range: [%d,%d) of %d", i, g.Start, g.End(), nrPages)
		}
		if i > 0 && g.Start < ws.Regions[i-1].End() {
			return fmt.Errorf("snapshot: region %d overlaps predecessor", i)
		}
	}
	return nil
}

// GroupPages coalesces a set of page indices into maximal runs of
// consecutive pages, preserving nothing but membership. Used both by
// SnapBPF's offset grouping and FaaSnap's region building.
func GroupPages(pages []int64) []Group {
	if len(pages) == 0 {
		return nil
	}
	sorted := append([]int64(nil), pages...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var out []Group
	cur := Group{Start: sorted[0], NPages: 1}
	for _, pg := range sorted[1:] {
		switch {
		case pg == cur.End()-1: // duplicate
		case pg == cur.End():
			cur.NPages++
		default:
			out = append(out, cur)
			cur = Group{Start: pg, NPages: 1}
		}
	}
	return append(out, cur)
}

// CoalesceGroups merges groups separated by gaps of at most maxGap
// pages, absorbing the gap pages — FaaSnap's region coalescing. The
// input must be sorted by Start and disjoint (as GroupPages returns).
func CoalesceGroups(groups []Group, maxGap int64) []Group {
	if len(groups) == 0 {
		return nil
	}
	out := []Group{groups[0]}
	for _, g := range groups[1:] {
		last := &out[len(out)-1]
		if g.Start-last.End() <= maxGap {
			last.NPages = g.End() - last.Start
		} else {
			out = append(out, g)
		}
	}
	return out
}

// --- serialization ---

// WriteOffsetsWS serializes ws to w.
func WriteOffsetsWS(w io.Writer, ws *OffsetsWS) error {
	fw := NewWriter(w, MagicOffsets)
	fw.Put(int64(len(ws.Groups)), ws.Groups)
	return fw.Close()
}

// ReadOffsetsWS parses an offsets working set.
func ReadOffsetsWS(r io.Reader) (*OffsetsWS, error) {
	fr, err := NewReader(r, MagicOffsets, "offsets ws")
	if err != nil {
		return nil, err
	}
	var n int64
	if err := fr.Get(&n); err != nil {
		return nil, err
	}
	ws := &OffsetsWS{}
	if ws.Groups, err = ReadSlice[Group](fr, n); err != nil {
		return nil, err
	}
	if err := fr.Close(); err != nil {
		return nil, err
	}
	return ws, nil
}

// WritePagedWS serializes ws to w.
func WritePagedWS(w io.Writer, ws *PagedWS) error {
	if len(ws.Pages) != len(ws.Tags) {
		return fmt.Errorf("snapshot: paged ws pages/tags length mismatch")
	}
	fw := NewWriter(w, MagicPaged)
	fw.Put(int64(len(ws.Pages)), ws.Pages, ws.Tags)
	return fw.Close()
}

// ReadPagedWS parses a paged working set.
func ReadPagedWS(r io.Reader) (*PagedWS, error) {
	fr, err := NewReader(r, MagicPaged, "paged ws")
	if err != nil {
		return nil, err
	}
	var n int64
	if err := fr.Get(&n); err != nil {
		return nil, err
	}
	ws := &PagedWS{}
	if ws.Pages, err = ReadSlice[int64](fr, n); err != nil {
		return nil, err
	}
	if ws.Tags, err = ReadSlice[uint64](fr, n); err != nil {
		return nil, err
	}
	if err := fr.Close(); err != nil {
		return nil, err
	}
	return ws, nil
}

// WriteRegionWS serializes ws to w.
func WriteRegionWS(w io.Writer, ws *RegionWS) error {
	fw := NewWriter(w, MagicRegion)
	fw.Put(int64(len(ws.Regions)), ws.WSPages, ws.Regions)
	return fw.Close()
}

// ReadRegionWS parses a region working set.
func ReadRegionWS(r io.Reader) (*RegionWS, error) {
	fr, err := NewReader(r, MagicRegion, "region ws")
	if err != nil {
		return nil, err
	}
	var n int64
	ws := &RegionWS{}
	if err := fr.Get(&n, &ws.WSPages); err != nil {
		return nil, err
	}
	if ws.Regions, err = ReadSlice[Group](fr, n); err != nil {
		return nil, err
	}
	if err := fr.Close(); err != nil {
		return nil, err
	}
	return ws, nil
}

// SaveFile writes the working set to path.
func (ws *OffsetsWS) SaveFile(path string) error {
	return Save(path, func(w io.Writer) error { return WriteOffsetsWS(w, ws) })
}

// SaveFile writes the working set to path.
func (ws *PagedWS) SaveFile(path string) error {
	return Save(path, func(w io.Writer) error { return WritePagedWS(w, ws) })
}

// SaveFile writes the working set to path.
func (ws *RegionWS) SaveFile(path string) error {
	return Save(path, func(w io.Writer) error { return WriteRegionWS(w, ws) })
}

// LoadOffsetsWS reads an offsets working set from path.
func LoadOffsetsWS(path string) (*OffsetsWS, error) { return Load(path, ReadOffsetsWS) }

// LoadPagedWS reads a paged working set from path.
func LoadPagedWS(path string) (*PagedWS, error) { return Load(path, ReadPagedWS) }

// LoadRegionWS reads a region working set from path.
func LoadRegionWS(path string) (*RegionWS, error) { return Load(path, ReadRegionWS) }
