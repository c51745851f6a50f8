package store

import (
	"reflect"
	"strings"
	"testing"
)

func testTags(n int) []uint64 {
	tags := make([]uint64, n)
	for i := range tags {
		tags[i] = uint64(i)*2654435761 + 1
	}
	return tags
}

func TestBuildManifestGeometry(t *testing.T) {
	tags := testTags(10)
	m := BuildManifest("fn", tags, 4)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NrPages != 10 || len(m.Chunks) != 3 {
		t.Fatalf("geometry: %d pages in %d chunks", m.NrPages, len(m.Chunks))
	}
	// Contiguous cover of [0, NrPages), last chunk partial.
	var next int64
	for _, c := range m.Chunks {
		if c.Start != next {
			t.Fatalf("chunk starts at %d, expected %d", c.Start, next)
		}
		next = c.End()
	}
	if next != m.NrPages {
		t.Fatalf("chunks cover %d of %d pages", next, m.NrPages)
	}
	if last := m.Chunks[2]; last.NPages != 2 {
		t.Fatalf("partial tail chunk has %d pages, want 2", last.NPages)
	}
	if got := m.TotalBytes(); got != 10*4096 {
		t.Fatalf("TotalBytes = %d, want %d", got, 10*4096)
	}
	// chunkPages <= 0 takes the default size.
	d := BuildManifest("fn", testTags(DefaultChunkPages+1), 0)
	if len(d.Chunks) != 2 || d.Chunks[0].NPages != DefaultChunkPages {
		t.Fatalf("default chunking: %+v", d.Chunks)
	}
}

func TestChunkIDContentAddressing(t *testing.T) {
	tags := testTags(8)
	// Same content, same extent length -> same ID (dedup); different
	// content -> different ID.
	a := chunkID(tags[0:4])
	if b := chunkID(tags[0:4]); b != a {
		t.Fatal("identical content hashed differently")
	}
	if b := chunkID(tags[4:8]); b == a {
		t.Fatal("distinct content collided")
	}
	// Two functions sharing page contents share chunk IDs.
	m1 := BuildManifest("fn1", tags, 4)
	m2 := BuildManifest("fn2", tags, 4)
	for i := range m1.Chunks {
		if m1.Chunks[i].ID != m2.Chunks[i].ID {
			t.Fatalf("chunk %d: IDs differ across functions with equal content", i)
		}
	}
}

func TestValidateRejectsBadExtents(t *testing.T) {
	cases := []struct {
		name string
		m    Manifest
		want string
	}{
		{"negative pages", Manifest{Fn: "f", NrPages: -1}, "negative page count"},
		{"zero extent", Manifest{Fn: "f", NrPages: 4,
			Chunks: []ChunkRef{{ID: 1, Start: 0, NPages: 0}}}, "out of range"},
		{"negative start", Manifest{Fn: "f", NrPages: 4,
			Chunks: []ChunkRef{{ID: 1, Start: -1, NPages: 2}}}, "out of range"},
		{"past end", Manifest{Fn: "f", NrPages: 4,
			Chunks: []ChunkRef{{ID: 1, Start: 2, NPages: 3}}}, "out of range"},
		{"overlap", Manifest{Fn: "f", NrPages: 8,
			Chunks: []ChunkRef{{ID: 1, Start: 0, NPages: 4}, {ID: 2, Start: 3, NPages: 2}}}, "overlaps"},
		{"duplicate extent", Manifest{Fn: "f", NrPages: 8,
			Chunks: []ChunkRef{{ID: 1, Start: 0, NPages: 4}, {ID: 1, Start: 0, NPages: 4}}}, "overlaps"},
	}
	for _, c := range cases {
		err := c.m.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
	// Duplicate IDs on distinct extents are dedup, not an error.
	dup := Manifest{Fn: "f", NrPages: 8,
		Chunks: []ChunkRef{{ID: 7, Start: 0, NPages: 4}, {ID: 7, Start: 4, NPages: 4}}}
	if err := dup.Validate(); err != nil {
		t.Errorf("duplicate chunk IDs rejected: %v", err)
	}
}

func TestPermuteChunksDeterministic(t *testing.T) {
	base := BuildManifest("p", testTags(1000), 64)
	a := BuildManifest("p", testTags(1000), 64)
	b := BuildManifest("p", testTags(1000), 64)
	PermuteChunks(a, 7)
	PermuteChunks(b, 7)
	if !reflect.DeepEqual(a.Chunks, b.Chunks) {
		t.Fatal("same seed produced different orders")
	}
	if reflect.DeepEqual(a.Chunks, base.Chunks) {
		t.Fatal("seed 7 left the order untouched (suspicious for 16 chunks)")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("permuted manifest invalid: %v", err)
	}
	// Same chunk set, different order.
	set := func(cs []ChunkRef) map[ChunkRef]bool {
		s := make(map[ChunkRef]bool, len(cs))
		for _, c := range cs {
			s[c] = true
		}
		return s
	}
	if !reflect.DeepEqual(set(a.Chunks), set(base.Chunks)) {
		t.Fatal("permutation changed the chunk set")
	}
}
