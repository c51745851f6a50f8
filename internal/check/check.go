// Package check is the correctness harness for the simulated
// storage/restore stack: a single Checker implements the observer
// interfaces of every layer (sim, blockdev, pagecache, hostmm, kvm,
// prefetch) and evaluates invariants online as events arrive, instead
// of sampling state after the fact.
//
// The harness maintains shadow state fed exclusively by events:
//
//   - a per-address-space page table mirroring every PTE transition
//     (file mappings, anonymous installs, CoW breaks), including the
//     content tag of every anonymous page;
//   - derived rmap reference counts built from address-space events —
//     deliberately NOT from page-cache map/unmap calls — so a
//     corrupted Inode map count is caught by cross-checking, not
//     mirrored;
//   - block-device queue occupancy and split-part accounting;
//   - the fault injector's applied treatments, balanced against its
//     Report counters at the end of the run.
//
// Every per-event lookup is an array index rather than a hash: an
// address space's shadow, found by AddressSpace.ID, is a chunked dense
// page table (64-page chunks of pointer-free slots, allocated on first
// write and freed when the space is released empty), page presence,
// derived refcounts and content tags are slices in one entry per inode
// indexed by inode number, and each simulated task keeps one
// guest-access stack, found by Proc.ID. The shadow therefore costs
// 8 bytes per 64 address-space pages plus 1.5 KiB per touched 64-page
// run, and per file 5 bytes a page once any page is cached and mapped,
// plus 8 a page when its contents are known.
//
// On top of the shadow page tables sits the differential oracle: the
// repo models page contents as uint64 tags, so after an invocation the
// checker can fold the guest-visible content of every snapshot state
// page into a digest. Every scheme — SnapBPF, REAP, Faast, FaaSnap,
// and the Linux baselines — must produce the same digest as a pure
// demand-paging run under the same trace, healthy or faulted; see the
// differential tests in internal/experiments.
package check

import (
	"fmt"
	"slices"
	"sort"

	"snapbpf/internal/faults"
	"snapbpf/internal/hostmm"
	"snapbpf/internal/kvm"
	"snapbpf/internal/pagecache"
	"snapbpf/internal/sim"
	"snapbpf/internal/store"
	"snapbpf/internal/units"
	"snapbpf/internal/vmm"
)

// maxViolations caps recorded violations so a systemically broken run
// does not accumulate unbounded diagnostics; further ones are counted.
const maxViolations = 64

// Violation is one observed invariant breach.
type Violation struct {
	// At is the virtual time the violation was detected.
	At sim.Time
	// Invariant is a stable identifier ("rmap-dedup-accounting", ...).
	Invariant string
	// Detail is the human-readable diagnosis.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%v] %s: %s", v.At, v.Invariant, v.Detail)
}

// chunkPages is the size of one address-space shadow chunk. Chunks
// are allocated on first write, so a space's shadow costs one pointer
// per chunkPages pages plus one chunk per touched run; larger chunks
// hold more untouched slots and raise peak RSS.
const (
	chunkShift = 6
	chunkPages = 1 << chunkShift
)

// Slot flag bits. The anonymous and file states of a page are tracked
// independently: after a pte-state violation both are live at once,
// and later events must see both, exactly as two separate tables would.
const (
	slotAnon  uint8 = 1 << iota // anonymous PTE: tag is its content
	slotKnown                   // the anonymous content is modelled
	slotFile                    // file PTE: ino/fileIdx name its backing page
)

// slot is the shadow of one PTE. It holds no pointers, so chunks cost
// the collector nothing to scan. An anonymous tag is unknown when an
// untagged UFFDIO_COPY installed content the harness cannot model.
type slot struct {
	tag     uint64 // content of the anonymous page
	fileIdx int64  // backing file page of the file PTE
	ino     uint32 // Inode.ID() of the file PTE's backing inode
	flags   uint8
}

// spaceShadow mirrors one address space's page table as a chunked
// dense array indexed by page.
type spaceShadow struct {
	released     bool
	nAnon, nFile int64 // live slots with slotAnon / slotFile set
	chunks       []*[chunkPages]slot
}

func newSpaceShadow(as *hostmm.AddressSpace) *spaceShadow {
	return &spaceShadow{chunks: make([]*[chunkPages]slot, (as.NrPages()+chunkPages-1)/chunkPages)}
}

// get returns page's slot, empty when its chunk was never written.
func (s *spaceShadow) get(page int64) slot {
	if ci := page >> chunkShift; ci >= 0 && ci < int64(len(s.chunks)) {
		if ch := s.chunks[ci]; ch != nil {
			return ch[page&(chunkPages-1)]
		}
	}
	return slot{}
}

// at returns page's slot for writing, allocating its chunk, and the
// chunk list too when SpaceReleased freed it and events still arrive.
func (s *spaceShadow) at(page int64) *slot {
	ci := page >> chunkShift
	if ci >= int64(len(s.chunks)) {
		s.chunks = append(s.chunks, make([]*[chunkPages]slot, ci+1-int64(len(s.chunks)))...)
	}
	ch := s.chunks[ci]
	if ch == nil {
		ch = new([chunkPages]slot)
		s.chunks[ci] = ch
	}
	return &ch[page&(chunkPages-1)]
}

// filePage is a file PTE as the pte-unmap-mismatch diagnostic prints it.
type filePage struct {
	ino     *pagecache.Inode
	fileIdx int64
}

// inodeShadow is the checker's view of one page-cache file. The slices
// are indexed by file page and allocated on first write.
type inodeShadow struct {
	ino *pagecache.Inode
	// cached is the presence of every cached page.
	cached []bool
	// refs is the derived rmap: reference counts built from
	// FilePageMapped/FilePageUnmapped events only.
	refs []int32
	// tags is the file's content-tag table, nil when the harness does
	// not know the contents. Read-only: other checkers may share it.
	tags []uint64
}

func (is *inodeShadow) isCached(idx int64) bool {
	return idx >= 0 && idx < int64(len(is.cached)) && is.cached[idx]
}

func (is *inodeShadow) ref(idx int64) int32 {
	if idx >= 0 && idx < int64(len(is.refs)) {
		return is.refs[idx]
	}
	return 0
}

// grow returns s extended to cover index idx and at least nrPages
// entries: a file's page slices are sized to the whole file on first
// use, while the space and task tables pass 0 and grow by ID.
func grow[T any](s []T, idx, nrPages int64) []T {
	if idx < int64(len(s)) {
		return s
	}
	return append(s, make([]T, max(idx+1, nrPages)-int64(len(s)))...)
}

// accessStack holds one simulated task's in-progress guest accesses,
// innermost last.
type accessStack struct {
	open []accessCtx
}

// accessCtx is one in-progress guest access (AccessBegin..AccessEnd),
// used to attribute host-level events (CoW breaks) to the guest access
// that caused them.
type accessCtx struct {
	vm    *kvm.VM
	pfn   int64
	write bool
}

// Checker implements every layer's Observer interface and accumulates
// violations. It must be confined to one simulated host; attach it
// with New before the first simulated event.
type Checker struct {
	h   *vmm.Host
	inj *faults.Injector

	// sim shadow.
	lastNow sim.Time

	// blockdev shadow.
	qdepth      int
	inFlight    int
	outstanding int // split parts submitted but not yet completed
	// Applied fault treatments, balanced against inj.Report in Finish.
	erroredServices int64
	spikedServices  int64
	stuckServices   int64
	shortServices   int64
	failedIOs       int64 // submissions whose final completion errored

	// inodes shadows every page-cache file the events name, indexed by
	// Inode.ID(): page presence, the derived rmap, and the content
	// tags of the snapshot memory file and of every working-set
	// artifact declared via ArtifactRegistered. nCached counts the
	// cached pages across all of them.
	inodes  []*inodeShadow
	nCached int64

	// spaces shadows every address space's page table, indexed by
	// AddressSpace.ID(). liveAnon counts the anonymous pages of the
	// spaces not yet released.
	spaces   []*spaceShadow
	liveAnon int64

	// stacks tracks in-progress guest accesses per simulated task,
	// indexed by Proc.ID(); a task's stack is kept once created.
	stacks []*accessStack

	// prefetch-level counters.
	recordsDone  int
	preparesDone int
	degraded     int64

	// store shadow (see store.go): the mirror of the host chunk cache
	// plus expected refcounts and chunk sizes from registered
	// manifests.
	storeCached  map[uint64]int64
	storeOpen    map[uint64]int
	storeBytes   map[uint64]int64
	storeRefs    map[uint64]int64
	storeHC      *store.HostCache
	storeRetries int64
	storeSpikes  int64

	// event tally, exposed via Counts for reconciliation against the
	// observability layer's metrics (internal/obs).
	counts Counts

	violations []Violation
	dropped    int
}

// Counts is the checker's independent tally of stack events. The
// observability layer counts the same events through its own metric
// registry; the conservation tests in internal/experiments reconcile
// the two tallies (and the fault injector's report) against each
// other, so a lost or double-counted event on either side fails.
type Counts struct {
	IOsSubmitted   int64 // blockdev submissions (sync + readahead)
	IOsCompleted   int64 // blockdev completions
	FailedIOs      int64 // completions whose final attempt errored
	PageInserts    int64 // page-cache inserts (demand + readahead)
	ReadaheadCalls int64 // ReadaheadAsync invocations
	ReadaheadPages int64 // pages inserted by readahead calls
	FileMaps       int64 // FilePageMapped events
	FileUnmaps     int64 // FilePageUnmapped events
	Faults         int64 // FaultResolved events, all kinds
	CoWBreaks      int64 // FaultResolved events with kind FaultCoW
	GuestAccesses  int64 // AccessBegin events
	Records        int64 // scheme record phases completed
	Prepares       int64 // PrepareVM completions
	Degraded       int64 // demand-paging fallbacks
	PrefetchGroups int64 // prefetch groups issued by user-space schemes
	PrefetchPages  int64 // pages covered by those groups
	OffsetLoads    int64 // SnapBPF offset-schedule loads

	StoreManifests  int64 // manifests bound to the host chunk cache
	StoreFetches    int64 // remote chunk fetches (== chunk misses)
	StoreFetchBytes int64 // payload bytes of those fetches
	StoreHits       int64 // resident-chunk lookups
	StoreDedupHits  int64 // hits on chunks fetched by another function
	StoreEvictions  int64 // chunks removed by LRU or cold-tier drop
}

// Counts returns the checker's event tally so far.
func (c *Checker) Counts() Counts {
	n := c.counts
	n.Records = int64(c.recordsDone)
	n.Prepares = int64(c.preparesDone)
	n.Degraded = c.degraded
	n.FailedIOs = c.failedIOs
	return n
}

// New attaches a fresh checker to every layer of the host — the
// engine, block device, page cache, memory manager and the KVM of
// every sandbox restored from now on — next to any observers already
// there. The caller adds it to prefetch.Env.Observers for scheme
// events, and AttachStore wires a chunk cache. Call before the first
// simulated event of the run.
func New(h *vmm.Host, inj *faults.Injector) *Checker {
	c := &Checker{
		h:      h,
		inj:    inj,
		qdepth: h.Dev.Params().QueueDepth,

		storeCached: make(map[uint64]int64),
		storeOpen:   make(map[uint64]int),
		storeBytes:  make(map[uint64]int64),
		storeRefs:   make(map[uint64]int64),
	}
	c.lastNow = h.Eng.Now()
	h.Eng.AddObserver(c)
	h.Dev.AddObserver(c)
	h.Cache.AddObserver(c)
	h.MM.AddObserver(c)
	h.AddKVMObserver(c)
	return c
}

// RegisterFileTags declares the content-tag table of a file: tags[i]
// is the content of file page i. The checker keeps tags itself, without
// a copy, and the caller must never mutate it afterwards; several
// checkers may share one table. The testbed registers each snapshot
// memory file with a copy no scheme sees; schemes register their
// working-set artifacts through the prefetch.Observer
// ArtifactRegistered event, which copies them first.
func (c *Checker) RegisterFileTags(ino *pagecache.Inode, tags []uint64) {
	if int64(len(tags)) != ino.NrPages() {
		c.violatef("artifact-size", "%s: %d tags declared for %d file pages",
			ino.Name(), len(tags), ino.NrPages())
	}
	c.inode(ino).tags = tags
}

// FileTags returns the content-tag table registered for ino, nil when
// none was. The slice is the checker's reference: read it, never write
// it.
func (c *Checker) FileTags(ino *pagecache.Inode) []uint64 {
	if id := ino.ID(); id < uint64(len(c.inodes)) && c.inodes[id] != nil && c.inodes[id].ino == ino {
		return c.inodes[id].tags
	}
	return nil
}

// Violations returns the recorded breaches (capped at maxViolations).
func (c *Checker) Violations() []Violation { return c.violations }

func (c *Checker) violatef(invariant, format string, args ...any) {
	if len(c.violations) >= maxViolations {
		c.dropped++
		return
	}
	c.violations = append(c.violations, Violation{
		At:        c.h.Eng.Now(),
		Invariant: invariant,
		Detail:    fmt.Sprintf(format, args...),
	})
}

func (c *Checker) shadow(as *hostmm.AddressSpace) *spaceShadow {
	id := int64(as.ID())
	if id < int64(len(c.spaces)) && c.spaces[id] != nil {
		return c.spaces[id]
	}
	// Address space created before the checker attached — only
	// possible if New was called mid-run, which is a harness bug.
	c.violatef("space-untracked", "%s observed before SpaceCreated", as.Name())
	c.spaces = grow(c.spaces, id, 0)
	c.spaces[id] = newSpaceShadow(as)
	return c.spaces[id]
}

// setAnon records an anonymous PTE with the given content in sl, a
// slot of s.
func (c *Checker) setAnon(s *spaceShadow, sl *slot, tag uint64, known bool) {
	if sl.flags&slotAnon == 0 {
		s.nAnon++
		if !s.released {
			c.liveAnon++
		}
	}
	sl.tag = tag
	sl.flags = sl.flags&^slotKnown | slotAnon
	if known {
		sl.flags |= slotKnown
	}
}

// inode returns the shadow of ino, creating it on first sight. A page
// cache numbers its inodes densely from 1 and a checker observes one
// cache, so a different inode behind a known number is a harness bug.
func (c *Checker) inode(ino *pagecache.Inode) *inodeShadow {
	id := ino.ID()
	if id < uint64(len(c.inodes)) {
		if is := c.inodes[id]; is != nil {
			if is.ino != ino {
				panic(fmt.Sprintf("check: inode %s reuses number %d of %s", ino.Name(), id, is.ino.Name()))
			}
			return is
		}
	} else {
		c.inodes = append(c.inodes, make([]*inodeShadow, id+1-uint64(len(c.inodes)))...)
	}
	is := &inodeShadow{ino: ino}
	c.inodes[id] = is
	return is
}

// stack returns p's guest-access stack, creating it on first sight.
func (c *Checker) stack(p *sim.Proc) *accessStack {
	id := int64(p.ID())
	c.stacks = grow(c.stacks, id, 0)
	if c.stacks[id] == nil {
		c.stacks[id] = &accessStack{}
	}
	return c.stacks[id]
}

// ---------------------------------------------------------------------------
// sim.Observer: event causality and clock monotonicity.

// EventScheduled implements sim.Observer.
func (c *Checker) EventScheduled(at sim.Time) {
	if at < c.lastNow {
		c.violatef("sim-causality", "event scheduled at %v before now %v", at, c.lastNow)
	}
}

// ClockAdvanced implements sim.Observer.
func (c *Checker) ClockAdvanced(now sim.Time) {
	if now < c.lastNow {
		c.violatef("sim-monotonic-clock", "clock moved backwards: %v -> %v", c.lastNow, now)
	}
	c.lastNow = now
}

// ---------------------------------------------------------------------------
// blockdev.Observer: NCQ slot and split-part conservation, applied
// fault treatments.

// IOSubmitted implements blockdev.Observer.
func (c *Checker) IOSubmitted(id, off, length int64, sync bool, attempt, parts int) {
	c.counts.IOsSubmitted++
	if id <= 0 {
		c.violatef("io-id", "submission [%d,%d) with non-positive id %d", off, off+length, id)
	}
	if parts <= 0 || length <= 0 {
		c.violatef("io-submit", "submission [%d,%d) with %d parts", off, off+length, parts)
		return
	}
	max := c.h.Dev.Params().MaxRequestBytes
	if want := int((length + max - 1) / max); parts != want {
		c.violatef("io-split", "submission of %d bytes split into %d parts, want %d (max %d)",
			length, parts, want, max)
	}
	c.outstanding += parts
}

// RequestServiced implements blockdev.Observer.
func (c *Checker) RequestServiced(off, length int64, attempt, inFlight int, out faults.ReadOutcome) {
	c.inFlight++
	if inFlight != c.inFlight {
		c.violatef("ncq-slot-conservation", "device reports %d in flight, shadow %d", inFlight, c.inFlight)
		c.inFlight = inFlight
	}
	if c.inFlight > c.qdepth {
		c.violatef("ncq-depth", "%d requests in flight exceeds queue depth %d", c.inFlight, c.qdepth)
	}
	if out.Err {
		c.erroredServices++
		if attempt >= faults.MaxErrorAttempts {
			c.violatef("fault-transience", "error injected at attempt %d (>= %d)",
				attempt, faults.MaxErrorAttempts)
		}
	}
	if out.ExtraMediaTime > 0 {
		c.spikedServices++
	}
	if out.HoldSlot > 0 {
		c.stuckServices++
	}
	if out.Short {
		c.shortServices++
		c.outstanding++ // the requeued tail is an extra part
		if length < int64(units.PageSize) {
			c.violatef("short-read-applicability", "short read left a %d-byte head", length)
		}
	}
}

// RequestCompleted implements blockdev.Observer.
func (c *Checker) RequestCompleted(inFlight int) {
	c.inFlight--
	c.outstanding--
	if inFlight != c.inFlight || c.inFlight < 0 {
		c.violatef("ncq-slot-conservation", "completion: device reports %d in flight, shadow %d",
			inFlight, c.inFlight)
		c.inFlight = inFlight
	}
	if c.outstanding < 0 {
		c.violatef("io-part-conservation", "more completions than submitted parts")
		c.outstanding = 0
	}
}

// IOCompleted implements blockdev.Observer.
func (c *Checker) IOCompleted(id int64, failed bool) {
	c.counts.IOsCompleted++
	if failed {
		c.failedIOs++
	}
}

// ---------------------------------------------------------------------------
// pagecache.Observer: presence/count accounting and eviction safety.

func (c *Checker) checkCachedCount(context string) {
	if got, want := c.h.Cache.NrCachedPages(), c.nCached; got != want {
		c.violatef("cache-count-accounting", "%s: cache reports %d pages, shadow %d",
			context, got, want)
	}
}

// PageInserted implements pagecache.Observer.
func (c *Checker) PageInserted(ino *pagecache.Inode, idx int64, readahead bool) {
	c.counts.PageInserts++
	is := c.inode(ino)
	if is.isCached(idx) {
		c.violatef("cache-double-insert", "%s page %d inserted while present", ino.Name(), idx)
	} else {
		is.cached = grow(is.cached, idx, ino.NrPages())
		is.cached[idx] = true
		c.nCached++
	}
	c.checkCachedCount("insert")
}

// PageEvicted implements pagecache.Observer.
func (c *Checker) PageEvicted(ino *pagecache.Inode, idx int64) {
	c.pageGone(ino, idx, "evict")
	if refs := c.inode(ino).ref(idx); refs != 0 {
		c.violatef("evict-mapped-page", "%s page %d reclaimed with %d derived rmap refs",
			ino.Name(), idx, refs)
	}
}

// PageRemoved implements pagecache.Observer.
func (c *Checker) PageRemoved(ino *pagecache.Inode, idx int64) {
	c.pageGone(ino, idx, "remove")
	if refs := c.inode(ino).ref(idx); refs != 0 {
		c.violatef("remove-mapped-page", "%s page %d dropped with %d derived rmap refs",
			ino.Name(), idx, refs)
	}
}

// ReadaheadIssued implements pagecache.Observer.
func (c *Checker) ReadaheadIssued(ino *pagecache.Inode, start, n, inserted int64) {
	c.counts.ReadaheadCalls++
	c.counts.ReadaheadPages += inserted
	if start < 0 || n < 0 {
		c.violatef("readahead-window", "%s readahead window [%d,%d) malformed", ino.Name(), start, start+n)
	}
	if inserted < 0 || inserted > n {
		c.violatef("readahead-inserts", "%s readahead of %d pages reports %d inserts",
			ino.Name(), n, inserted)
	}
}

func (c *Checker) pageGone(ino *pagecache.Inode, idx int64, context string) {
	if is := c.inode(ino); !is.isCached(idx) {
		c.violatef("cache-"+context+"-absent", "%s page %d %sed while absent",
			ino.Name(), idx, context)
	} else {
		is.cached[idx] = false
		c.nCached--
	}
	c.checkCachedCount(context)
}

// ---------------------------------------------------------------------------
// hostmm.Observer: PTE shadowing, derived rmap, anonymous accounting,
// CoW attribution.

// SpaceCreated implements hostmm.Observer.
func (c *Checker) SpaceCreated(as *hostmm.AddressSpace) {
	id := int64(as.ID())
	c.spaces = grow(c.spaces, id, 0)
	if old := c.spaces[id]; old != nil {
		c.violatef("space-recreated", "%s created twice", as.Name())
		if !old.released {
			c.liveAnon -= old.nAnon
		}
	}
	c.spaces[id] = newSpaceShadow(as)
}

// SpaceReleased implements hostmm.Observer.
func (c *Checker) SpaceReleased(as *hostmm.AddressSpace) {
	s := c.shadow(as)
	// Release fires per-page events (FilePageUnmapped/AnonDropped)
	// before SpaceReleased, so the shadow must already be empty.
	n := s.nAnon + s.nFile
	if n != 0 {
		c.violatef("space-release-leak", "%s released with %d shadow PTEs live", as.Name(), n)
	} else {
		s.chunks = nil
	}
	if got := as.AnonPages(); got != 0 {
		c.violatef("anon-accounting", "%s released with AnonPages=%d", as.Name(), got)
	}
	if !s.released {
		c.liveAnon -= s.nAnon
	}
	s.released = true
}

// FilePageMapped implements hostmm.Observer.
func (c *Checker) FilePageMapped(as *hostmm.AddressSpace, page int64, ino *pagecache.Inode, fileIdx int64) {
	c.counts.FileMaps++
	s := c.shadow(as)
	sl := s.at(page)
	if sl.flags&slotFile != 0 {
		c.violatef("pte-double-map", "%s page %d file-mapped twice", as.Name(), page)
	} else {
		s.nFile++
	}
	if sl.flags&slotAnon != 0 {
		c.violatef("pte-state", "%s page %d file-mapped over an anonymous page", as.Name(), page)
	}
	is := c.inode(ino)
	if !is.isCached(fileIdx) {
		c.violatef("map-uncached-page", "%s page %d maps %s page %d which is not cached",
			as.Name(), page, ino.Name(), fileIdx)
	}
	sl.flags |= slotFile
	sl.ino = uint32(ino.ID())
	sl.fileIdx = fileIdx
	is.refs = grow(is.refs, fileIdx, ino.NrPages())
	is.refs[fileIdx]++
}

// FilePageUnmapped implements hostmm.Observer.
func (c *Checker) FilePageUnmapped(as *hostmm.AddressSpace, page int64, ino *pagecache.Inode, fileIdx int64) {
	c.counts.FileUnmaps++
	s := c.shadow(as)
	sl := s.at(page)
	is := c.inode(ino)
	if sl.flags&slotFile == 0 || sl.ino != uint32(ino.ID()) || sl.fileIdx != fileIdx {
		var fp filePage
		if sl.flags&slotFile != 0 {
			fp = filePage{c.inodes[sl.ino].ino, sl.fileIdx}
		}
		c.violatef("pte-unmap-mismatch", "%s page %d unmapped from %s page %d but shadow has %+v",
			as.Name(), page, ino.Name(), fileIdx, fp)
		return
	}
	sl.flags &^= slotFile
	s.nFile--
	if is.ref(fileIdx) <= 0 {
		c.violatef("rmap-underflow", "%s page %d unmapped below zero refs", ino.Name(), fileIdx)
		return
	}
	is.refs[fileIdx]--
}

// AnonInstalled implements hostmm.Observer.
func (c *Checker) AnonInstalled(as *hostmm.AddressSpace, page int64, content uint64, known bool) {
	s := c.shadow(as)
	sl := s.at(page)
	if sl.flags&slotAnon != 0 {
		c.violatef("anon-double-install", "%s page %d installed while already anonymous", as.Name(), page)
	}
	if sl.flags&slotFile != 0 {
		c.violatef("pte-state", "%s page %d anonymous install over a live file mapping", as.Name(), page)
	}
	c.setAnon(s, sl, content, known)
}

// AnonDropped implements hostmm.Observer.
func (c *Checker) AnonDropped(as *hostmm.AddressSpace, page int64) {
	s := c.shadow(as)
	sl := s.at(page)
	if sl.flags&slotAnon == 0 {
		c.violatef("anon-drop-absent", "%s page %d dropped while not anonymous", as.Name(), page)
		return
	}
	sl.flags &^= slotAnon | slotKnown
	s.nAnon--
	if !s.released {
		c.liveAnon--
	}
}

// FaultResolved implements hostmm.Observer.
func (c *Checker) FaultResolved(p *sim.Proc, as *hostmm.AddressSpace, page int64, write bool, kind hostmm.FaultKind) {
	c.counts.Faults++
	if kind == hostmm.FaultCoW {
		c.counts.CoWBreaks++
	}
	s := c.shadow(as)
	sl := s.at(page)
	isAnon := sl.flags&slotAnon != 0
	isFile := sl.flags&slotFile != 0
	switch kind {
	case hostmm.FaultMinor:
		if !isAnon && !isFile {
			c.violatef("minor-fault-unmapped", "%s page %d minor fault on unmapped page", as.Name(), page)
		}
		if write && !isAnon {
			c.violatef("minor-write-shared", "%s page %d write minor fault on a shared file page",
				as.Name(), page)
		}
	case hostmm.FaultFile:
		// FilePageMapped fired before this event.
		if !isFile {
			c.violatef("file-fault-unmapped", "%s page %d file fault left no file PTE", as.Name(), page)
		}
	case hostmm.FaultZeroFill:
		// installAnon on an anonymous VMA bypasses AnonInstalled;
		// mirror it here. Fresh anonymous memory is zero.
		if isFile {
			c.violatef("pte-state", "%s page %d zero-fill over a live file mapping", as.Name(), page)
		}
		c.setAnon(s, sl, 0, true)
	case hostmm.FaultCoW:
		// The broken file PTE (if any) already fired FilePageUnmapped.
		// The copied content is the backing file page's.
		if isFile {
			c.violatef("cow-file-pte-live", "%s page %d CoW left the file PTE mapped", as.Name(), page)
		}
		tag, known := c.cowContent(as, page)
		c.setAnon(s, sl, tag, known)
		c.checkCoWAttribution(p, as, page)
	case hostmm.FaultUffd:
		// The handler must have installed the page (hostmm panics
		// otherwise); the install fired AnonInstalled.
		if !isAnon {
			c.violatef("uffd-left-unmapped", "%s page %d uffd fault left no anonymous PTE",
				as.Name(), page)
		}
	}
	if got, want := as.AnonPages(), s.nAnon; got != want {
		c.violatef("anon-accounting", "%s: AnonPages=%d but shadow has %d anonymous pages",
			as.Name(), got, want)
	}
}

// cowContent resolves the content a CoW break copies: the backing file
// page of the VMA covering the faulted page.
func (c *Checker) cowContent(as *hostmm.AddressSpace, page int64) (tag uint64, known bool) {
	v := as.FindVMA(page)
	if v == nil || v.Inode == nil {
		c.violatef("cow-without-file-vma", "%s page %d broke CoW outside a file mapping",
			as.Name(), page)
		return 0, false
	}
	fi := v.FilePage(page)
	tags := c.inode(v.Inode).tags
	if fi < 0 || fi >= int64(len(tags)) {
		return 0, false // unknown file contents
	}
	return tags[fi], true
}

// checkCoWAttribution enforces that CoW breaks are only ever triggered
// by guest writes: a CoW during a read access is legal only on a VM
// running the unpatched KVM (ForceWriteMapping), which is exactly the
// §4 pathology the paper's patch removes.
func (c *Checker) checkCoWAttribution(p *sim.Proc, as *hostmm.AddressSpace, page int64) {
	st := c.stack(p).open
	if len(st) == 0 {
		c.violatef("cow-outside-guest-access", "%s page %d broke CoW outside any guest access",
			as.Name(), page)
		return
	}
	ctx := st[len(st)-1]
	if !ctx.write && !ctx.vm.ForceWriteMapping {
		c.violatef("cow-under-read", "%s page %d broke CoW under a guest read with patched KVM",
			as.Name(), page)
	}
}

// ---------------------------------------------------------------------------
// kvm.Observer: access bracketing, PV-mirror consistency, and the
// guest-write content evolution that drives the differential oracle.

// AccessBegin implements kvm.Observer.
func (c *Checker) AccessBegin(p *sim.Proc, v *kvm.VM, pfn int64, write bool) {
	c.counts.GuestAccesses++
	st := c.stack(p)
	st.open = append(st.open, accessCtx{vm: v, pfn: pfn, write: write})
}

// AccessEnd implements kvm.Observer.
func (c *Checker) AccessEnd(p *sim.Proc, v *kvm.VM, pfn int64, write, mirror bool) {
	st := c.stack(p)
	n := len(st.open)
	if n == 0 {
		c.violatef("access-unbalanced", "AccessEnd pfn %d without AccessBegin", pfn)
		return
	}
	ctx := st.open[n-1]
	st.open[n-1] = accessCtx{} // drop the VM reference
	st.open = st.open[:n-1]
	if ctx.vm != v || ctx.pfn != pfn || ctx.write != write {
		c.violatef("access-mismatch", "AccessEnd (pfn %d write %v) does not match AccessBegin (pfn %d write %v)",
			pfn, write, ctx.pfn, ctx.write)
	}
	host := v.HostBase + pfn
	s := c.shadow(v.AS)
	if mirror {
		// PV-mirror consistency: the mirrored gPFN and its original
		// must resolve to the same host page, which the mirror fault
		// backed with anonymous memory.
		if s.get(host).flags&slotAnon == 0 {
			c.violatef("pv-mirror-anon", "mirror access to pfn %d left host page %d non-anonymous",
				pfn, host)
		}
	}
	if write {
		sl := s.at(host)
		if sl.flags&slotAnon == 0 {
			// A guest write must always land on private memory; a write
			// into a shared page-cache page corrupts every other sandbox.
			c.violatef("write-on-shared-page", "guest write to pfn %d landed on non-anonymous host page %d",
				pfn, host)
			return
		}
		sl.tag = evolveTag(sl.tag, pfn)
	}
}

// evolveTag is the deterministic content transition of one guest write:
// it depends only on the prior content and the written frame, so any
// two runs replaying the same trace over the same initial contents
// converge to the same tags regardless of scheme, timing or fault plan.
func evolveTag(tag uint64, pfn int64) uint64 {
	x := tag ^ (uint64(pfn)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	if x == 0 {
		x = 1 // keep zero reserved for "never written / zero page"
	}
	return x
}

// ---------------------------------------------------------------------------
// prefetch.Observer: scheme-level lifecycle and degradation counting.

// RecordDone implements prefetch.Observer.
func (c *Checker) RecordDone(scheme string, wsPages int64) {
	if wsPages < 0 {
		c.violatef("record-ws", "%s recorded negative working set %d", scheme, wsPages)
	}
	c.recordsDone++
}

// ArtifactRegistered implements prefetch.Observer. The tags come from
// the scheme under test, so the checker keeps its own copy: a scheme
// that later writes through its slice cannot move the reference.
func (c *Checker) ArtifactRegistered(ino *pagecache.Inode, tags []uint64) {
	c.RegisterFileTags(ino, slices.Clone(tags))
}

// PrepareDone implements prefetch.Observer.
func (c *Checker) PrepareDone(scheme string, vm *vmm.MicroVM) { c.preparesDone++ }

// Degraded implements prefetch.Observer.
func (c *Checker) Degraded(scheme string, vm *vmm.MicroVM, reason string) { c.degraded++ }

// PrefetchIssued implements prefetch.Observer.
func (c *Checker) PrefetchIssued(p *sim.Proc, scheme string, vm *vmm.MicroVM, start, npages int64) {
	c.counts.PrefetchGroups++
	c.counts.PrefetchPages += npages
	if npages <= 0 || start < 0 {
		c.violatef("prefetch-group", "%s issued group [%d,%d) for %s", scheme, start, start+npages, vm.Name)
	}
}

// OffsetsLoaded implements prefetch.Observer.
func (c *Checker) OffsetsLoaded(p *sim.Proc, scheme string, vm *vmm.MicroVM, groups int, took sim.Duration) {
	c.counts.OffsetLoads++
	if groups < 0 || took < 0 {
		c.violatef("offset-load", "%s loaded %d groups in %v for %s", scheme, groups, took, vm.Name)
	}
}

// ---------------------------------------------------------------------------
// Digest: the differential oracle.

// VMDone runs the per-sandbox end-of-invocation checks and returns the
// digest of the sandbox's guest-visible memory. Call after Invoke and
// before Shutdown (the shadow page table dies with the address space).
//
// The digest folds, in frame order, the content tag of every snapshot
// *state* page as the guest would read it: anonymous pages contribute
// their tracked tag, file-mapped pages the backing file content, and
// untouched pages the snapshot image content they would demand-fault
// to. Free-pool frames are excluded — their content legitimately
// differs across schemes (stale garbage, zero-on-free, PV anonymous
// backing) precisely because no correct guest reads them before
// writing.
func (c *Checker) VMDone(vm *vmm.MicroVM) uint64 {
	s := c.shadow(vm.AS)
	if got, want := vm.AS.AnonPages(), s.nAnon; got != want {
		c.violatef("anon-accounting", "%s: AnonPages=%d but shadow has %d anonymous pages",
			vm.Name, got, want)
	}
	if got := c.h.MM.TotalAnonPages(); got != c.liveAnon {
		c.violatef("anon-total-accounting", "MM reports %d anonymous pages, shadows hold %d",
			got, c.liveAnon)
	}

	digest := uint64(fnvOffset)
	for pfn := int64(0); pfn < vm.Image.StatePages; pfn++ {
		tag, known := c.resolveContent(vm, s, pfn)
		if !known {
			c.violatef("digest-unknown-content", "%s: state pfn %d has untracked content", vm.Name, pfn)
		}
		digest = fnvFold(digest, uint64(pfn))
		digest = fnvFold(digest, tag)
	}
	return digest
}

const fnvOffset, fnvPrime = 0xcbf29ce484222325, 0x100000001b3

// fnvFold folds the eight little-endian bytes of x into the FNV-1a
// hash h.
func fnvFold(h, x uint64) uint64 {
	h = (h ^ x&0xff) * fnvPrime
	h = (h ^ x>>8&0xff) * fnvPrime
	h = (h ^ x>>16&0xff) * fnvPrime
	h = (h ^ x>>24&0xff) * fnvPrime
	h = (h ^ x>>32&0xff) * fnvPrime
	h = (h ^ x>>40&0xff) * fnvPrime
	h = (h ^ x>>48&0xff) * fnvPrime
	return (h ^ x>>56) * fnvPrime
}

// resolveContent returns the content tag guest frame pfn reads as.
func (c *Checker) resolveContent(vm *vmm.MicroVM, s *spaceShadow, pfn int64) (uint64, bool) {
	sl := s.get(vm.KVM.HostBase + pfn)
	if sl.flags&slotAnon != 0 {
		return sl.tag, sl.flags&slotKnown != 0
	}
	if sl.flags&slotFile != 0 {
		tags := c.inodes[sl.ino].tags
		if sl.fileIdx >= 0 && sl.fileIdx < int64(len(tags)) {
			return tags[sl.fileIdx], true
		}
		return 0, false
	}
	// Unmapped: a demand fault — through any correct scheme's handler —
	// would yield the snapshot content.
	return vm.Image.PageTags[pfn], true
}

// ---------------------------------------------------------------------------
// Finish: end-of-run conservation checks.

// Finish runs the whole-run invariants — storage quiescence, fault
// conservation against the injector's report, and the rmap dedup
// cross-check — and returns an error summarizing every recorded
// violation, or nil if the run was clean. Call after all sandboxes
// have shut down.
func (c *Checker) Finish() error {
	if c.inFlight != 0 || c.outstanding != 0 {
		c.violatef("storage-quiesce", "run ended with %d requests in flight, %d parts outstanding",
			c.inFlight, c.outstanding)
	}
	for _, st := range c.stacks {
		if st != nil && len(st.open) != 0 {
			c.violatef("access-unbalanced", "run ended with %d guest accesses still open", len(st.open))
		}
	}

	// Fault conservation: every drawn treatment was applied exactly
	// once, every failure was absorbed exactly once.
	rep := c.inj.Report()
	conserve := func(name string, reported, observed int64) {
		if reported != observed {
			c.violatef("fault-conservation", "%s: injector reports %d, stack observed %d",
				name, reported, observed)
		}
	}
	conserve("io-errors", rep.IOErrors, c.erroredServices)
	conserve("latency-spikes", rep.LatencySpikes, c.spikedServices)
	conserve("stuck-slots", rep.StuckSlots, c.stuckServices)
	conserve("short-reads", rep.ShortReads, c.shortServices)
	conserve("retries", rep.Retries, c.failedIOs)
	conserve("fallbacks", rep.Fallbacks, c.degraded)
	conserve("degradations", rep.ArtifactCorruptions+rep.MapLoadFailures, c.degraded)
	conserve("store-errors", rep.StoreErrors, c.storeRetries)
	conserve("store-spikes", rep.StoreSpikes, c.storeSpikes)
	c.finishStore()

	c.finishRmap()
	c.checkCachedCount("finish")

	if len(c.violations) == 0 {
		return nil
	}
	return &Error{Violations: c.violations, Dropped: c.dropped}
}

// finishRmap is the rmap dedup cross-check: the cache's per-page map
// counts must match the reference counts derived purely from
// address-space events, and every derived reference must name a cached
// page. A dedup accounting bug on either side breaks equality. Pages
// are visited in inode-number then page-index order, so the capped
// violation list is the same on every run.
func (c *Checker) finishRmap() {
	var inos []*pagecache.Inode
	c.h.Cache.ForEachInode(func(ino *pagecache.Inode) { inos = append(inos, ino) })
	sort.Slice(inos, func(i, j int) bool { return inos[i].ID() < inos[j].ID() })
	type mismatch struct {
		idx      int64
		mapCount int
		derived  int32
	}
	var bad []mismatch
	for _, ino := range inos {
		is := c.inode(ino)
		bad = bad[:0]
		ino.ForEachPage(func(idx int64, uptodate bool, mapCount int) {
			if derived := is.ref(idx); mapCount != int(derived) {
				bad = append(bad, mismatch{idx, mapCount, derived})
			}
		})
		sort.Slice(bad, func(i, j int) bool { return bad[i].idx < bad[j].idx })
		for _, m := range bad {
			c.violatef("rmap-dedup-accounting", "%s page %d: MapCount=%d, derived rmap refs=%d",
				ino.Name(), m.idx, m.mapCount, m.derived)
		}
	}
	for _, is := range c.inodes {
		if is == nil {
			continue
		}
		for idx, n := range is.refs {
			if n != 0 && !is.isCached(int64(idx)) {
				c.violatef("rmap-uncached-ref", "%s page %d holds %d rmap refs but is not cached",
					is.ino.Name(), idx, n)
			}
		}
	}
}

// Error aggregates a run's violations.
type Error struct {
	Violations []Violation
	Dropped    int
}

func (e *Error) Error() string {
	const show = 5
	msg := fmt.Sprintf("check: %d invariant violation(s)", len(e.Violations)+e.Dropped)
	n := len(e.Violations)
	if n > show {
		n = show
	}
	for _, v := range e.Violations[:n] {
		msg += "\n  " + v.String()
	}
	if rest := len(e.Violations) + e.Dropped - n; rest > 0 {
		msg += fmt.Sprintf("\n  ... and %d more", rest)
	}
	return msg
}
