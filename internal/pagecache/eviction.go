package pagecache

// Page-cache eviction under memory pressure. Real FaaS nodes do not
// have unbounded page cache: when the cache exceeds MemLimitPages,
// insertion reclaims clean, unmapped pages in LRU order, exactly the
// regime where deduplicated (shared) working sets must be refetched
// and the schemes' trade-offs shift.
//
// Pages that are currently mapped into an address space (tracked with
// rmap-style map counts by internal/hostmm) are skipped by reclaim,
// as are in-flight pages.

// SetMemLimit bounds the cache to limitPages (0 = unlimited).
func (c *Cache) SetMemLimit(limitPages int64) { c.memLimit = limitPages }

// MemLimit returns the configured bound.
func (c *Cache) MemLimit() int64 { return c.memLimit }

// Evictions returns the number of pages reclaimed so far.
func (c *Cache) Evictions() int64 { return c.stats.Evicted }

// touchLRU moves a page to the most-recently-used position.
func (c *Cache) touchLRU(pg *Page) {
	if pg.lruElem != nil {
		c.lru.MoveToBack(pg.lruElem)
		return
	}
	pg.lruElem = c.lru.PushBack(pg)
}

// dropLRU removes a page from the LRU list.
func (c *Cache) dropLRU(pg *Page) {
	if pg.lruElem != nil {
		c.lru.Remove(pg.lruElem)
		pg.lruElem = nil
	}
}

// reclaim evicts LRU pages until the cache is back under its limit.
// Mapped and in-flight pages are skipped (shrink_page_list semantics
// without writeback, since our cached snapshot pages are clean).
func (c *Cache) reclaim() {
	if c.memLimit <= 0 {
		return
	}
	e := c.lru.Front()
	for c.nrCached > c.memLimit && e != nil {
		next := e.Next()
		pg := e.Value.(*Page)
		if pg.Uptodate() && pg.mapCount == 0 && pg.pins == 0 {
			c.dropLRU(pg)
			pg.inode.clearPage(pg.index)
			c.nrCached--
			c.stats.Evicted++
			for _, o := range c.obs {
				o.PageEvicted(pg.inode, pg.index)
			}
		}
		e = next
	}
}

// MapPage records that an address space mapped the resident page
// (rmap reference); mapped pages are exempt from reclaim. It is a
// no-op for absent pages.
func (i *Inode) MapPage(idx int64) {
	if pg := i.page(idx); pg != nil {
		pg.mapCount++
	}
}

// UnmapPage drops one rmap reference.
func (i *Inode) UnmapPage(idx int64) {
	if pg := i.page(idx); pg != nil && pg.mapCount > 0 {
		pg.mapCount--
	}
}

// Unpin releases the fault-path reference FaultPage took on the page.
// Call once the page has been mapped or its content copied.
func (i *Inode) Unpin(idx int64) {
	pg := i.page(idx)
	if pg == nil || pg.pins <= 0 {
		panic("pagecache: unpin of a page that is not pinned")
	}
	pg.pins--
}

// MapCount returns the rmap reference count for tests.
func (i *Inode) MapCount(idx int64) int {
	if pg := i.page(idx); pg != nil {
		return pg.mapCount
	}
	return 0
}
