package check

import (
	"sort"
	"time"

	"snapbpf/internal/sim"
	"snapbpf/internal/store"
	"snapbpf/internal/units"
)

// This file is the snapshot-distribution-tier half of the harness: the
// Checker implements store.Observer and maintains a mirror of the host
// chunk cache fed only by events. The invariants:
//
//   - no fetch after hit: a chunk the mirror says is resident must
//     never start a remote fetch (dedup and the in-flight table must
//     suppress it);
//   - single fetch in flight per chunk: concurrent misses coalesce;
//   - byte accounting: every fetch of a chunk moves exactly the
//     payload its manifests declare, and one chunk ID always has one
//     size (content addressing);
//   - hits and evictions only touch resident chunks;
//   - manifest hash verification: a fetched chunk whose content does
//     not re-hash to its manifest ID is a corrupt chunk or a stale
//     manifest;
//   - at Finish, the mirror, the cache's own statistics, the expected
//     manifest refcounts and the fault injector's report must all
//     agree.

// AttachStore observes the host chunk cache and registers it as the
// cache whose statistics and refcounts Finish reconciles against the
// event-fed mirror. Call before the cache's first event.
func (c *Checker) AttachStore(hc *store.HostCache) {
	hc.AddObserver(c)
	c.storeHC = hc
}

// StoreManifestRegistered implements store.Observer.
func (c *Checker) StoreManifestRegistered(fn string, m *store.Manifest) {
	c.counts.StoreManifests++
	for _, ch := range m.Chunks {
		bytes := int64(units.PagesToBytes(ch.NPages))
		if want, ok := c.storeBytes[ch.ID]; ok && want != bytes {
			c.violatef("store-chunk-bytes", "chunk %016x declared as %d bytes by %s but %d bytes earlier",
				ch.ID, bytes, fn, want)
		}
		c.storeBytes[ch.ID] = bytes
		c.storeRefs[ch.ID]++
	}
}

// StoreFetchBegin implements store.Observer.
func (c *Checker) StoreFetchBegin(p *sim.Proc, fn string, id uint64, bytes int64) {
	c.counts.StoreFetches++
	c.counts.StoreFetchBytes += bytes
	if _, resident := c.storeCached[id]; resident {
		c.violatef("store-fetch-after-hit", "%s fetches chunk %016x which is already resident", fn, id)
	}
	if want, ok := c.storeBytes[id]; ok && want != bytes {
		c.violatef("store-byte-accounting", "chunk %016x fetch moves %d bytes, manifest declares %d",
			id, bytes, want)
	}
	c.storeOpen[id]++
	if c.storeOpen[id] > 1 {
		c.violatef("store-duplicate-fetch", "chunk %016x has %d concurrent fetches; misses must coalesce",
			id, c.storeOpen[id])
	}
}

// StoreFetchEnd implements store.Observer.
func (c *Checker) StoreFetchEnd(p *sim.Proc, fn string, id uint64, bytes int64, retries, spikes int, took time.Duration) {
	if c.storeOpen[id] == 0 {
		c.violatef("store-fetch-unbalanced", "chunk %016x completed a fetch that never began", id)
	} else if c.storeOpen[id]--; c.storeOpen[id] == 0 {
		delete(c.storeOpen, id)
	}
	c.storeCached[id] = bytes
	c.storeRetries += int64(retries)
	c.storeSpikes += int64(spikes)
	if took <= 0 {
		c.violatef("store-fetch-latency", "chunk %016x fetched in %v; remote fetches take time", id, took)
	}
}

// StoreChunkVerified implements store.Observer.
func (c *Checker) StoreChunkVerified(fn string, id uint64, ok bool) {
	if !ok {
		c.violatef("store-chunk-digest", "%s chunk %016x content does not re-hash to its manifest ID (corrupt chunk or stale manifest)",
			fn, id)
	}
}

// StoreChunkHit implements store.Observer.
func (c *Checker) StoreChunkHit(p *sim.Proc, fn string, id uint64, dedup bool) {
	c.counts.StoreHits++
	if dedup {
		c.counts.StoreDedupHits++
	}
	if _, resident := c.storeCached[id]; !resident {
		c.violatef("store-hit-uncached", "%s hit chunk %016x which is not resident", fn, id)
	}
}

// StoreChunkEvicted implements store.Observer.
func (c *Checker) StoreChunkEvicted(id uint64) {
	c.counts.StoreEvictions++
	if _, resident := c.storeCached[id]; !resident {
		c.violatef("store-evict-uncached", "evicted chunk %016x which is not resident", id)
	}
	delete(c.storeCached, id)
}

// finishStore runs the end-of-run store reconciliation; called from
// Finish after fault conservation.
func (c *Checker) finishStore() {
	if len(c.storeOpen) != 0 {
		c.violatef("store-quiesce", "run ended with %d chunk fetches still open", len(c.storeOpen))
	}
	hc := c.storeHC
	if hc == nil {
		return
	}
	st := hc.Stats()
	eq := func(name string, mirror, cache int64) {
		if mirror != cache {
			c.violatef("store-count-accounting", "%s: mirror observed %d, cache recorded %d",
				name, mirror, cache)
		}
	}
	eq("fetches", c.counts.StoreFetches, st.Fetches)
	eq("fetch-bytes", c.counts.StoreFetchBytes, st.FetchBytes)
	eq("hits", c.counts.StoreHits, st.Hits)
	eq("dedup-hits", c.counts.StoreDedupHits, st.DedupHits)
	eq("evictions", c.counts.StoreEvictions, st.Evictions)
	eq("manifests", c.counts.StoreManifests, st.Manifests)
	eq("fetch-retries", c.storeRetries, st.Retries)
	eq("fetch-spikes", c.storeSpikes, st.Spikes)

	// Resident-set equality between the event-fed mirror and the
	// cache's own table.
	ids := hc.CachedChunks()
	if len(ids) != len(c.storeCached) {
		c.violatef("store-cache-accounting", "cache holds %d chunks, mirror holds %d",
			len(ids), len(c.storeCached))
	}
	for _, id := range ids {
		if _, ok := c.storeCached[id]; !ok {
			c.violatef("store-cache-accounting", "chunk %016x resident in cache but unseen by the mirror", id)
		}
	}

	// Chunk-refcount conservation: the cache's per-chunk manifest
	// references must match the counts derived from registration
	// events alone.
	keys := make([]uint64, 0, len(c.storeRefs))
	for id := range c.storeRefs {
		keys = append(keys, id)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, id := range keys {
		if got := hc.RefCount(id); got != c.storeRefs[id] {
			c.violatef("store-refcount-conservation", "chunk %016x: cache holds %d refs, manifests registered %d",
				id, got, c.storeRefs[id])
		}
	}
}
