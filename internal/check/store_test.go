package check

import (
	"testing"
	"time"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/faults"
	"snapbpf/internal/sim"
	"snapbpf/internal/store"
	"snapbpf/internal/units"
	"snapbpf/internal/vmm"
)

func storeChecker(t *testing.T) *Checker {
	t.Helper()
	return New(vmm.NewHost(blockdev.MicronSATA5300()), nil)
}

func countViol(c *Checker, invariant string) int {
	n := 0
	for _, v := range c.Violations() {
		if v.Invariant == invariant {
			n++
		}
	}
	return n
}

// TestStoreMirrorCleanRun drives a real host chunk cache — fetches,
// a hit, a cold-tier drop — with the checker as its observer and
// requires the event-fed mirror to reconcile without a violation.
func TestStoreMirrorCleanRun(t *testing.T) {
	h := vmm.NewHost(blockdev.MicronSATA5300())
	chk := New(h, nil)
	remote := store.NewRemote(store.Params{
		FirstByte: 10 * time.Millisecond, MiBps: 1024, ChunkPages: 4})
	hc := store.NewHostCache(h.Eng, remote, faults.NewInjector(faults.Plan{}))
	chk.AttachStore(hc)
	tags := make([]uint64, 16)
	for i := range tags {
		tags[i] = uint64(i)*2654435761 + 1
	}
	man := store.BuildManifest("fn", tags, 4)
	b := hc.Bind(man, store.PolicyDemand, tags)
	h.Eng.Go("reader", func(p *sim.Proc) {
		b.Stage(p, 0, int64(units.PagesToBytes(16))) // 4 chunk fetches
		b.Stage(p, 0, int64(units.PagesToBytes(1)))  // 1 hit
	})
	h.Eng.Run()
	hc.Drop() // 4 evictions
	chk.finishStore()
	if vs := chk.Violations(); len(vs) != 0 {
		t.Fatalf("clean store run reported violations: %v", vs)
	}
	cc := chk.Counts()
	if cc.StoreFetches != 4 || cc.StoreHits != 1 || cc.StoreEvictions != 4 ||
		cc.StoreManifests != 1 || cc.StoreFetchBytes != int64(units.PagesToBytes(16)) {
		t.Fatalf("mirror counts: %+v", cc)
	}
}

// TestStoreMirrorViolations exercises every store invariant's failure
// path by feeding the observer an event stream a correct cache could
// never emit.
func TestStoreMirrorViolations(t *testing.T) {
	ref := func(id uint64, start, npages int64) store.ChunkRef {
		return store.ChunkRef{ID: id, Start: start, NPages: npages}
	}
	man := func(fn string, chunks ...store.ChunkRef) *store.Manifest {
		var pages int64
		for _, c := range chunks {
			pages += c.NPages
		}
		return &store.Manifest{Fn: fn, NrPages: pages, Chunks: chunks}
	}
	cases := []struct {
		invariant string
		drive     func(c *Checker)
	}{
		{"store-fetch-after-hit", func(c *Checker) {
			c.StoreFetchBegin(nil, "f", 1, 100)
			c.StoreFetchEnd(nil, "f", 1, 100, 0, 0, time.Millisecond)
			c.StoreFetchBegin(nil, "f", 1, 100)
		}},
		{"store-duplicate-fetch", func(c *Checker) {
			c.StoreFetchBegin(nil, "f", 2, 100)
			c.StoreFetchBegin(nil, "f", 2, 100)
		}},
		{"store-byte-accounting", func(c *Checker) {
			c.StoreManifestRegistered("f", man("f", ref(3, 0, 4)))
			c.StoreFetchBegin(nil, "f", 3, 4096) // manifest declares 4 pages
		}},
		{"store-chunk-bytes", func(c *Checker) {
			c.StoreManifestRegistered("f", man("f", ref(9, 0, 4)))
			c.StoreManifestRegistered("g", man("g", ref(9, 0, 8)))
		}},
		{"store-chunk-digest", func(c *Checker) {
			c.StoreChunkVerified("f", 4, false)
		}},
		{"store-hit-uncached", func(c *Checker) {
			c.StoreChunkHit(nil, "f", 5, false)
		}},
		{"store-evict-uncached", func(c *Checker) {
			c.StoreChunkEvicted(6)
		}},
		{"store-fetch-unbalanced", func(c *Checker) {
			c.StoreFetchEnd(nil, "f", 7, 100, 0, 0, time.Millisecond)
		}},
		{"store-fetch-latency", func(c *Checker) {
			c.StoreFetchBegin(nil, "f", 8, 100)
			c.StoreFetchEnd(nil, "f", 8, 100, 0, 0, 0)
		}},
		{"store-quiesce", func(c *Checker) {
			c.StoreFetchBegin(nil, "f", 9, 100)
			c.finishStore()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.invariant, func(t *testing.T) {
			c := storeChecker(t)
			tc.drive(c)
			if got := countViol(c, tc.invariant); got != 1 {
				t.Fatalf("%s fired %d times, want 1 (all: %v)",
					tc.invariant, got, c.Violations())
			}
		})
	}
}

// TestStoreMirrorReconciliationCatchesDrift attaches a real cache,
// then corrupts the mirror with events the cache never saw: the
// end-of-run reconciliation must flag the count drift and the phantom
// manifest's refcounts.
func TestStoreMirrorReconciliationCatchesDrift(t *testing.T) {
	h := vmm.NewHost(blockdev.MicronSATA5300())
	chk := New(h, nil)
	remote := store.NewRemote(store.Params{
		FirstByte: 10 * time.Millisecond, MiBps: 1024, ChunkPages: 4})
	hc := store.NewHostCache(h.Eng, remote, faults.NewInjector(faults.Plan{}))
	chk.AttachStore(hc)
	tags := make([]uint64, 8)
	for i := range tags {
		tags[i] = uint64(i)*40503 + 7
	}
	b := hc.Bind(store.BuildManifest("fn", tags, 4), store.PolicyDemand, tags)
	h.Eng.Go("reader", func(p *sim.Proc) {
		b.Stage(p, 0, int64(units.PagesToBytes(8)))
	})
	h.Eng.Run()
	// A manifest registration the cache never performed: manifest
	// count and the phantom chunk's refcount both drift.
	chk.StoreManifestRegistered("ghost", &store.Manifest{
		Fn: "ghost", NrPages: 4,
		Chunks: []store.ChunkRef{{ID: 0xfeed, Start: 0, NPages: 4}}})
	// A fetch completion the cache never saw: fetch counts drift and
	// the mirror holds a chunk the cache does not.
	chk.StoreFetchBegin(nil, "ghost", 0xfeed, int64(units.PagesToBytes(4)))
	chk.StoreFetchEnd(nil, "ghost", 0xfeed, int64(units.PagesToBytes(4)), 0, 0, time.Millisecond)
	chk.finishStore()
	if got := countViol(chk, "store-count-accounting"); got == 0 {
		t.Error("count drift between mirror and cache stats not flagged")
	}
	if got := countViol(chk, "store-cache-accounting"); got == 0 {
		t.Error("resident-set drift between mirror and cache not flagged")
	}
	if got := countViol(chk, "store-refcount-conservation"); got == 0 {
		t.Error("phantom manifest refcount not flagged")
	}
}
