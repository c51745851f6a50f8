// Package store simulates the snapshot distribution tier: an S3-like
// remote object store holding snapshots as manifest-indexed,
// content-addressed chunks, fronted by a per-host chunk cache on the
// local SSD. The cache sits *behind* the block device — a chunk that
// is resident on the host is read through the usual device model, so
// the prefetching schemes are unchanged; only cold chunks pay the
// remote first-byte latency and link bandwidth before their device
// reads can be submitted.
//
// Everything is deterministic: fetch faults draw from dedicated
// internal/faults classes (so arming the store never perturbs the
// existing streams), the per-host link serializes transfers in fetch
// order, and chunk IDs are pure functions of page contents, which is
// what makes cross-function dedup — two functions sharing base-image
// chunks fetch them once per host — fall out of content addressing.
package store

import (
	"fmt"
	"sort"

	"snapbpf/internal/units"
)

// ChunkRef is one manifest entry: a content-addressed chunk covering
// the page extent [Start, Start+NPages) of the snapshot image.
type ChunkRef struct {
	// ID is the FNV-1a hash of the chunk's page contents — equal
	// extents of equal content collide by construction, which is the
	// dedup mechanism.
	ID uint64
	// Start is the first snapshot page the chunk covers.
	Start int64
	// NPages is the extent length in pages.
	NPages int64
}

// End returns the first page past the chunk's extent.
func (c ChunkRef) End() int64 { return c.Start + c.NPages }

// Manifest indexes one snapshot image in the remote store.
type Manifest struct {
	// Fn names the snapshotted function (the object key prefix).
	Fn string
	// NrPages is the snapshot image size in pages.
	NrPages int64
	// Chunks covers [0, NrPages) with non-overlapping extents. Order
	// is not significant — consumers index by extent — so a permuted
	// manifest must behave byte-identically (see PermuteChunks).
	Chunks []ChunkRef
}

// chunkID hashes a page-tag extent with FNV-1a — the same fold the
// checker's guest-memory digest uses, so chunk identity is a pure
// function of content.
func chunkID(tags []uint64) uint64 {
	const offset, prime = 0xcbf29ce484222325, 0x100000001b3
	h := uint64(offset)
	for _, tag := range tags {
		for b := 0; b < 8; b++ {
			h ^= (tag >> (8 * b)) & 0xff
			h *= prime
		}
	}
	return h
}

// BuildManifest chunks a snapshot image (represented by its page tags)
// into fixed-size content-addressed extents. chunkPages <= 0 takes the
// DefaultChunkPages size.
func BuildManifest(fn string, tags []uint64, chunkPages int64) *Manifest {
	if chunkPages <= 0 {
		chunkPages = DefaultChunkPages
	}
	nr := int64(len(tags))
	m := &Manifest{Fn: fn, NrPages: nr}
	for start := int64(0); start < nr; start += chunkPages {
		end := start + chunkPages
		if end > nr {
			end = nr
		}
		m.Chunks = append(m.Chunks, ChunkRef{
			ID:     chunkID(tags[start:end]),
			Start:  start,
			NPages: end - start,
		})
	}
	return m
}

// PermuteChunks deterministically shuffles the manifest's chunk order
// with a seeded splitmix64 Fisher-Yates — a metamorphic test knob:
// chunk order is not meaningful, so any permutation must leave every
// downstream byte identical.
func PermuteChunks(m *Manifest, seed int64) {
	state := uint64(seed)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := len(m.Chunks) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		m.Chunks[i], m.Chunks[j] = m.Chunks[j], m.Chunks[i]
	}
}

// Validate checks manifest sanity: extents must be positive, inside
// [0, NrPages) and non-overlapping. Duplicate chunk IDs are legal —
// that is dedup — but duplicate or intersecting extents are not.
func (m *Manifest) Validate() error {
	if m.NrPages < 0 {
		return fmt.Errorf("store: manifest %q: negative page count %d", m.Fn, m.NrPages)
	}
	sorted := append([]ChunkRef(nil), m.Chunks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	for i, c := range sorted {
		if c.NPages <= 0 || c.Start < 0 || c.End() > m.NrPages {
			return fmt.Errorf("store: manifest %q: chunk extent [%d,%d) out of range of %d pages",
				m.Fn, c.Start, c.End(), m.NrPages)
		}
		if i > 0 && c.Start < sorted[i-1].End() {
			return fmt.Errorf("store: manifest %q: chunk extent [%d,%d) overlaps predecessor [%d,%d)",
				m.Fn, c.Start, c.End(), sorted[i-1].Start, sorted[i-1].End())
		}
	}
	return nil
}

// TotalBytes returns the summed chunk payload size.
func (m *Manifest) TotalBytes() int64 {
	var n int64
	for _, c := range m.Chunks {
		n += c.NPages
	}
	return int64(units.PagesToBytes(n))
}
