// Package pagecache models the Linux page cache for the simulated
// host kernel: per-inode resident pages, demand faulting with a
// readahead window, asynchronous readahead
// (page_cache_ra_unbounded), buffered and direct reads, and mincore.
//
// Every page insertion fires the "add_to_page_cache_lru" kprobe with
// (inode id, page index) — the hook both SnapBPF eBPF programs attach
// to (§3.1 of the paper). Pages inserted here are shared by every
// process that maps the backing file, which is the deduplication
// property SnapBPF exploits for concurrent VM sandboxes.
//
// Each inode's pages live in a dense table of 64-page chunks, so
// walks (ForEachPage, DropCaches) run in index order. Device reads
// complete as engine callbacks chained to the read's waiter (the bio
// end_io path), not as processes.
package pagecache

import (
	"container/list"
	"fmt"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/costmodel"
	"snapbpf/internal/faults"
	"snapbpf/internal/kprobe"
	"snapbpf/internal/sim"
	"snapbpf/internal/units"
)

// HookAddToPageCacheLRU is the kprobe name fired on every insertion.
const HookAddToPageCacheLRU = "add_to_page_cache_lru"

// DefaultRAPages is the default Linux readahead window: 128KiB = 32
// pages, the value the paper uses for its Linux-RA baseline.
const DefaultRAPages = 32

// Page is one resident (or in-flight) page-cache page.
type Page struct {
	inode  *Inode
	index  int64
	ioDone *sim.Waiter // non-nil while the backing read is in flight

	// lruElem is the page's position in the cache's reclaim list;
	// mapCount is the rmap reference count (address spaces currently
	// mapping this page), which exempts it from reclaim.
	lruElem  *list.Element
	mapCount int

	// pins counts fault-path references (the folio refcount a faulting
	// task holds from lookup until it has mapped or copied the page);
	// pinned pages are exempt from reclaim, so a fault cannot lose its
	// page to memory pressure between read completion and use.
	pins int
}

// Uptodate reports whether the page content has arrived from storage.
func (pg *Page) Uptodate() bool { return pg.ioDone == nil || pg.ioDone.Fired() }

// Stats holds cache-wide counters.
type Stats struct {
	Hits        int64 // faults served by an uptodate page
	WaitHits    int64 // faults that waited on an in-flight page
	Misses      int64 // faults that had to start a read
	Inserted    int64 // pages added to the cache (any path)
	RAInserted  int64 // pages added by ReadaheadAsync
	DirectReads int64 // direct-I/O requests (bypass)
	Evicted     int64 // pages reclaimed under memory pressure
}

// Cache is the host page cache.
type Cache struct {
	eng    *sim.Engine
	dev    *blockdev.Device
	probes *kprobe.Registry
	cm     costmodel.Model

	// RAPages is the demand-fault readahead window in pages; 0
	// disables readahead (the Linux-NoRA baseline).
	RAPages int64

	nextInode uint64
	inodes    map[uint64]*Inode
	nrCached  int64
	lru       *list.List
	memLimit  int64 // 0 = unlimited

	// cur is the task currently executing inside a synchronous kernel
	// dispatch chain (page insertion -> kprobe -> eBPF -> kfunc). It
	// is only valid for the duration of that chain: insert sets it
	// before firing the probe and restores it after, so a kfunc such
	// as snapbpf_prefetch can charge CPU time to the task whose fault
	// triggered the program. It is never read across a sleep.
	cur *sim.Proc

	obs []Observer

	stats Stats
}

// Observer receives cache-level events for the correctness harness
// (internal/check) and the observability layer (internal/obs).
// Observers must not mutate cache state. Rmap map/unmap is deliberately
// NOT observed: the harness derives its own reference counts from
// address-space events and cross-checks them against MapCount, so a
// corrupted rmap counter cannot hide by also corrupting the shadow.
type Observer interface {
	// PageInserted fires for every page added to the cache (in-flight
	// until its read lands); readahead marks the asynchronous path.
	PageInserted(ino *Inode, idx int64, readahead bool)
	// PageEvicted fires when reclaim removes a page under memory
	// pressure.
	PageEvicted(ino *Inode, idx int64)
	// PageRemoved fires when DropCaches or Invalidate removes a page.
	PageRemoved(ino *Inode, idx int64)
	// ReadaheadIssued fires once per ReadaheadAsync call — the
	// prefetch-group issue point of the SnapBPF kfunc and the Linux
	// readahead window — before the run's inserts and reads are
	// submitted. n is the in-bounds window size, inserted the number
	// of absent pages about to be inserted.
	ReadaheadIssued(ino *Inode, start, n, inserted int64)
}

// AddObserver attaches o after the cache's other observers.
func (c *Cache) AddObserver(o Observer) { c.obs = sim.AppendObserver(c.obs, o) }

// ForEachInode visits every registered inode (iteration order is
// unspecified; callers that need determinism must sort).
func (c *Cache) ForEachInode(f func(*Inode)) {
	for _, ino := range c.inodes {
		f(ino)
	}
}

// ForEachPage visits every cached page of the inode with its uptodate
// status and rmap map count, in index order.
func (i *Inode) ForEachPage(f func(idx int64, uptodate bool, mapCount int)) {
	i.eachPage(func(pg *Page) { f(pg.index, pg.Uptodate(), pg.mapCount) })
}

// eachPage visits the inode's cached pages in index order. f may
// remove the page it is given.
func (i *Inode) eachPage(f func(pg *Page)) {
	for _, ch := range i.pages {
		if ch == nil {
			continue
		}
		for _, pg := range ch {
			if pg != nil {
				f(pg)
			}
		}
	}
}

// New creates a page cache backed by dev, firing probes on insertions.
func New(eng *sim.Engine, dev *blockdev.Device, probes *kprobe.Registry, cm costmodel.Model) *Cache {
	return &Cache{
		eng:     eng,
		dev:     dev,
		probes:  probes,
		cm:      cm,
		RAPages: DefaultRAPages,
		inodes:  make(map[uint64]*Inode),
		lru:     list.New(),
	}
}

// Engine returns the simulation engine.
func (c *Cache) Engine() *sim.Engine { return c.eng }

// Device returns the backing block device.
func (c *Cache) Device() *blockdev.Device { return c.dev }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// InodeByID resolves an inode number, as kernel code (the SnapBPF
// prefetch kfunc) must when it receives an inode id from a BPF map.
func (c *Cache) InodeByID(id uint64) (*Inode, bool) {
	ino, ok := c.inodes[id]
	return ino, ok
}

// NrCachedPages returns the number of pages currently in the cache
// (resident or in flight) across all inodes — the page-cache share of
// system memory in the Fig. 3c accounting.
func (c *Cache) NrCachedPages() int64 { return c.nrCached }

// charge sleeps task p for d; a nil p (background or asynchronous
// context) drops the cost, as kernel work off the fault path does not
// extend the faulting task's latency.
func charge(p *sim.Proc, d sim.Duration) {
	if p != nil && d > 0 {
		p.Sleep(d)
	}
}

// DropCaches evicts every page from every inode (echo 3 >
// drop_caches), used to cold-start record phases. In-flight pages are
// kept, as the kernel does. The caller must ensure no address space
// still maps the dropped pages (the harness drops between phases,
// after sandbox teardown).
func (c *Cache) DropCaches() {
	for _, ino := range c.inodes {
		ino.eachPage(func(pg *Page) {
			if pg.Uptodate() {
				ino.remove(pg)
			}
		})
	}
}

// remove drops an uptodate page from the cache (DropCaches,
// Invalidate) and tells the observers.
func (i *Inode) remove(pg *Page) {
	i.c.dropLRU(pg)
	i.clearPage(pg.index)
	i.c.nrCached--
	for _, o := range i.c.obs {
		o.PageRemoved(i, pg.index)
	}
}

// Inode is one cached file.
type Inode struct {
	c       *Cache
	id      uint64
	name    string
	nrPages int64

	// pages is the inode's page table, dense and chunked: chunk k holds
	// pages [k*chunkPages, (k+1)*chunkPages) and is allocated on its
	// first insert, so a lookup is two indexed loads and a sparse
	// working set costs one chunk per touched run.
	pages []*pageChunk

	// raPages overrides the cache default when >= 0; the SnapBPF
	// capture phase disables readahead on the snapshot inode so only
	// true working-set pages are fetched and recorded (§3.1).
	raPages int64

	// stager, when non-nil, is blocked on before any device read of
	// this inode is submitted — the snapshot distribution tier
	// (internal/store) fetching cold chunks from the remote. Local
	// files leave it nil and pay nothing.
	stager Stager
}

// Stager gates device reads of an inode on data being locally
// resident. Stage blocks until the byte range [off, off+length) can be
// read from the local device. Implemented by internal/store's chunk
// binding; defined here so the page cache does not depend on the
// store.
type Stager interface {
	Stage(p *sim.Proc, off, length int64)
}

// SetStager installs the read-staging hook; nil removes it.
func (i *Inode) SetStager(s Stager) { i.stager = s }

// NewInode registers a file of nrPages pages with the cache.
func (c *Cache) NewInode(name string, nrPages int64) *Inode {
	c.nextInode++
	ino := &Inode{
		c:       c,
		id:      c.nextInode,
		name:    name,
		nrPages: nrPages,
		pages:   make([]*pageChunk, (nrPages+chunkPages-1)/chunkPages),
		raPages: -1,
	}
	c.inodes[ino.id] = ino
	return ino
}

// ID returns the inode number, the value SnapBPF programs filter on.
func (i *Inode) ID() uint64 { return i.id }

// Name returns the file name.
func (i *Inode) Name() string { return i.name }

// NrPages returns the file size in pages.
func (i *Inode) NrPages() int64 { return i.nrPages }

// SetReadahead overrides the readahead window for this inode;
// pass -1 to inherit the cache default, 0 to disable.
func (i *Inode) SetReadahead(pages int64) { i.raPages = pages }

func (i *Inode) raWindow() int64 {
	if i.raPages >= 0 {
		return i.raPages
	}
	return i.c.RAPages
}

// chunkPages is the size of one page-table chunk. With 8-byte entries
// a chunk is 512 bytes, and the chunk directory costs one pointer per
// chunkPages pages of file.
const (
	chunkShift = 6
	chunkPages = 1 << chunkShift
)

type pageChunk [chunkPages]*Page

// page returns the cached page idx, or nil when it is absent or idx is
// outside the file.
func (i *Inode) page(idx int64) *Page {
	if ci := idx >> chunkShift; idx >= 0 && ci < int64(len(i.pages)) {
		if ch := i.pages[ci]; ch != nil {
			return ch[idx&(chunkPages-1)]
		}
	}
	return nil
}

// setPage stores pg at its index, allocating the chunk on first use.
func (i *Inode) setPage(pg *Page) {
	ch := i.pages[pg.index>>chunkShift]
	if ch == nil {
		ch = new(pageChunk)
		i.pages[pg.index>>chunkShift] = ch
	}
	ch[pg.index&(chunkPages-1)] = pg
}

// clearPage empties slot idx; its chunk stays allocated.
func (i *Inode) clearPage(idx int64) {
	i.pages[idx>>chunkShift][idx&(chunkPages-1)] = nil
}

// Present reports whether the page is in the cache (even in-flight).
func (i *Inode) Present(idx int64) bool { return i.page(idx) != nil }

// Resident reports whether the page is in the cache and uptodate.
func (i *Inode) Resident(idx int64) bool {
	pg := i.page(idx)
	return pg != nil && pg.Uptodate()
}

// ResidentPages returns the number of uptodate pages of this inode.
func (i *Inode) ResidentPages() int64 {
	var n int64
	i.eachPage(func(pg *Page) {
		if pg.Uptodate() {
			n++
		}
	})
	return n
}

// insert adds one absent page in in-flight state bound to done,
// firing the insertion kprobe and charging insertion cost to p. The
// caller guarantees the page is absent. The cache's current-task
// pointer is set for the duration of the probe dispatch so kfuncs can
// charge the same task.
func (i *Inode) insert(p *sim.Proc, idx int64, done *sim.Waiter, readahead bool) *Page {
	pg := &Page{inode: i, index: idx, ioDone: done}
	i.setPage(pg)
	i.c.nrCached++
	i.c.stats.Inserted++
	// Observe before the kprobe dispatch below: an attached program can
	// recursively insert further pages, and observers must see cache
	// events in causal order (check's TestKprobeBeforeObserverCaught
	// fails when the kprobe runs first).
	for _, o := range i.c.obs {
		o.PageInserted(i, idx, readahead)
	}
	i.c.touchLRU(pg)
	i.c.reclaim()
	charge(p, i.c.cm.PageCacheInsert)
	if i.c.probes != nil {
		if i.c.probes.AttachedCount(HookAddToPageCacheLRU) > 0 {
			charge(p, i.c.cm.KprobeDispatch)
		}
		prev := i.c.cur
		i.c.cur = p
		i.c.probes.Fire(HookAddToPageCacheLRU, i.id, uint64(idx))
		i.c.cur = prev
	}
	return pg
}

// submitRuns groups the given sorted absent indices into contiguous
// runs, inserts their pages, and submits one device read per run. All
// inserted pages bound to a run share its completion waiter. Demand
// faults submit synchronous-class reads; readahead submits
// REQ_RAHEAD-class reads that yield to them.
func (i *Inode) submitRuns(p *sim.Proc, indices []int64, readahead bool) {
	for n := 0; n < len(indices); {
		start := indices[n]
		end := n + 1
		for end < len(indices) && indices[end] == indices[end-1]+1 {
			end++
		}
		runLen := int64(end - n)
		done := i.c.eng.NewWaiter()
		for k := int64(0); k < runLen; k++ {
			// Re-check: a kprobe program fired by an earlier insert in
			// this run may itself have inserted pages of this inode.
			if !i.Present(start + k) {
				i.insert(p, start+k, done, readahead)
			}
		}
		r := &readRelay{
			ino:       i,
			off:       int64(units.PageIdx(start).ByteOff()),
			length:    int64(units.PagesToBytes(runLen)),
			readahead: readahead,
			done:      done,
		}
		if st := i.stager; st != nil {
			// Staged inode: the chunk must cross the remote link
			// before the device read can be submitted, and Stage
			// blocks, so submission waits in a process of its own.
			i.c.eng.Go("io-complete", func(proc *sim.Proc) {
				st.Stage(proc, r.off, r.length)
				r.submit()
			})
		} else {
			r.io = r.read()
			i.c.eng.Schedule(0, r.await)
		}
		n = end
	}
}

// readRelay relays one run's device read to the waiter its pages share,
// as the bio end_io callback does in the kernel: no task waits for the
// read. A failed read is re-issued with backoff before the pages come
// uptodate, as the kernel re-issues a failed bio before declaring the
// folio in error; injected errors are transient (never at attempt >=
// MaxErrorAttempts), so the pages always come uptodate eventually.
type readRelay struct {
	ino         *Inode
	off, length int64
	readahead   bool // REQ_RAHEAD-class reads yield to demand faults
	attempt     int
	io          *blockdev.IO
	done        *sim.Waiter
}

// read submits the current attempt.
func (r *readRelay) read() *blockdev.IO {
	dev := r.ino.c.dev
	if r.readahead {
		return dev.SubmitReadaheadIO(r.off, r.length, r.attempt)
	}
	return dev.SubmitReadIO(r.off, r.length, r.attempt)
}

// submit issues the current attempt and waits for it.
func (r *readRelay) submit() {
	r.io = r.read()
	r.await()
}

// await chains landed to the read in flight.
func (r *readRelay) await() { r.io.Done().OnFire(r.landed) }

// landed retries a failed read after its backoff, or marks the run's
// pages uptodate. Reclaim runs again then: in-flight pages are not
// evictable, so an insertion burst can overshoot the limit until its
// reads land (as direct reclaim does while waiting out in-flight
// folios).
func (r *readRelay) landed() {
	if r.io.Err() != nil && r.attempt+1 < faults.MaxRetryAttempts {
		r.attempt++
		r.ino.c.dev.Faults().CountRetry()
		r.ino.c.eng.Schedule(faults.Backoff(r.attempt-1), r.submit)
		return
	}
	r.done.Fire()
	r.ino.c.reclaim()
}

// FaultPage is the demand-fault read path: it returns once page idx is
// resident, starting a read (with the readahead window) if needed.
// The process is charged fault-handling CPU time: a minor-fault cost
// on hits, major-fault software overhead plus device wait on misses.
//
// The returned page is *pinned* — the folio reference a faulting task
// holds from lookup until it has mapped or copied the page — so memory
// pressure cannot reclaim it out from under the fault. The caller must
// Unpin once done with the page.
func (i *Inode) FaultPage(p *sim.Proc, idx int64) {
	if idx < 0 || idx >= i.nrPages {
		panic(fmt.Sprintf("pagecache: fault beyond EOF: %s page %d of %d", i.name, idx, i.nrPages))
	}
	for !i.faultPageOnce(p, idx) {
	}
}

// faultPageOnce is one pass of the fault path. It returns true once
// the page is resident and pinned; false means the page was read but
// reclaimed again before it could be pinned (possible only when a
// kprobe program inside the insert path yields), and the fault must
// retry — filemap_fault's VM_FAULT_RETRY.
func (i *Inode) faultPageOnce(p *sim.Proc, idx int64) bool {
	if pg := i.page(idx); pg != nil {
		pg.pins++
		if pg.Uptodate() {
			i.c.stats.Hits++
			i.c.touchLRU(pg)
			return true
		}
		i.c.stats.WaitHits++
		p.Wait(pg.ioDone)
		return true
	}

	p.Sleep(i.c.cm.MajorFaultSW)

	// The sleep above is a scheduling point: another task may have
	// started the read meanwhile. Re-check before submitting.
	if pg := i.page(idx); pg != nil {
		pg.pins++
		if pg.Uptodate() {
			i.c.stats.Hits++
			return true
		}
		i.c.stats.WaitHits++
		p.Wait(pg.ioDone)
		return true
	}
	i.c.stats.Misses++

	// Collect the absent pages of the readahead window (at least the
	// faulting page itself).
	window := i.raWindow()
	if window < 1 {
		window = 1
	}
	hi := idx + window
	if hi > i.nrPages {
		hi = i.nrPages
	}
	var toRead []int64
	for j := idx; j < hi; j++ {
		if !i.Present(j) {
			toRead = append(toRead, j)
		}
	}
	i.submitRuns(p, toRead, false)

	pg := i.page(idx)
	if pg == nil {
		return false
	}
	pg.pins++
	if !pg.Uptodate() {
		p.Wait(pg.ioDone)
	}
	return true
}

// FaultPageUnpinned faults the page in and immediately drops the
// fault pin — for callers that only want residency, not a reference
// held across further work.
func (i *Inode) FaultPageUnpinned(p *sim.Proc, idx int64) {
	i.FaultPage(p, idx)
	i.Unpin(idx)
}

// ReadaheadAsync is page_cache_ra_unbounded: it inserts the absent
// pages of [start, start+n) and submits their reads without waiting
// for completion. It returns the number of pages newly inserted.
// When called from inside a probe dispatch (the SnapBPF prefetch
// kfunc), CPU cost is charged to the task whose fault triggered the
// program; from other contexts it is free of CPU cost.
func (i *Inode) ReadaheadAsync(start, n int64) int64 {
	if start < 0 {
		start = 0
	}
	hi := start + n
	if hi > i.nrPages {
		hi = i.nrPages
	}
	if hi < start {
		hi = start
	}
	var toRead []int64
	for j := start; j < hi; j++ {
		if !i.Present(j) {
			toRead = append(toRead, j)
		}
	}
	// Before submitRuns: inserts dispatched below (and any prefetch
	// program they fire recursively) must observe their causing
	// readahead first.
	for _, o := range i.c.obs {
		o.ReadaheadIssued(i, start, hi-start, int64(len(toRead)))
	}
	i.submitRuns(i.c.cur, toRead, true)
	i.c.stats.RAInserted += int64(len(toRead))
	return int64(len(toRead))
}

// BufferedRead models a read(2) of nPages pages starting at startPage:
// it faults each page through the cache (demand path, honouring the
// inode readahead setting) and charges the per-page copy_to_user cost.
// FaaSnap's userspace prefetch thread issues these.
func (i *Inode) BufferedRead(p *sim.Proc, startPage, nPages int64) {
	p.Sleep(i.c.cm.Syscall)
	hi := startPage + nPages
	if hi > i.nrPages {
		hi = i.nrPages
	}
	for j := startPage; j < hi; j++ {
		i.FaultPage(p, j)
		p.Sleep(i.c.cm.CopyUserPage)
		i.Unpin(j)
	}
}

// DirectRead models an O_DIRECT read: it goes straight to the device,
// bypassing the cache entirely — no insertion, no kprobe firing, no
// sharing. REAP and Faast fetch working sets this way (§2.1). The
// error is non-nil when the device injected a transient media error;
// unlike the buffered path, O_DIRECT surfaces it to userspace, so the
// scheme owns the retry (via DirectReadAttempt).
func (i *Inode) DirectRead(p *sim.Proc, startPage, nPages int64) error {
	return i.DirectReadAttempt(p, startPage, nPages, 0)
}

// DirectReadAttempt is DirectRead with an explicit retry index.
func (i *Inode) DirectReadAttempt(p *sim.Proc, startPage, nPages int64, attempt int) error {
	p.Sleep(i.c.cm.Syscall)
	i.c.stats.DirectReads++
	off := int64(units.PageIdx(startPage).ByteOff())
	length := int64(units.PagesToBytes(nPages))
	if st := i.stager; st != nil {
		st.Stage(p, off, length)
	}
	return i.c.dev.ReadAttempt(p, off, length, attempt)
}

// Mincore returns the residency bitmap for [start, start+n): true for
// pages that are resident in the cache, mirroring mincore(2) on a
// file-backed mapping. FaaSnap captures working sets with this.
func (i *Inode) Mincore(start, n int64) []bool {
	out := make([]bool, n)
	for j := int64(0); j < n; j++ {
		out[j] = i.Resident(start + j)
	}
	return out
}

// Invalidate drops resident pages of [start, start+n), used by tests
// and the drop-caches path.
func (i *Inode) Invalidate(start, n int64) {
	for j := start; j < start+n; j++ {
		if pg := i.page(j); pg != nil && pg.Uptodate() {
			i.remove(pg)
		}
	}
}
