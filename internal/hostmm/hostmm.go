// Package hostmm models the host kernel's memory management as seen by
// a VMM process: address spaces with file-backed (private, CoW) and
// anonymous VMAs, demand faulting, userfaultfd regions, and
// system-wide anonymous-page accounting.
//
// The accounting here is one half of the paper's Figure 3c: anonymous
// pages (userfaultfd installs, CoW breaks, PV allocations) are charged
// per address space and never shared between VM sandboxes, while
// file-backed read-only pages resolve to shared page-cache pages
// charged once in internal/pagecache. That asymmetry is exactly why
// userfaultfd-based prefetchers cannot deduplicate working sets (§2.1).
package hostmm

import (
	"fmt"
	"sort"

	"snapbpf/internal/costmodel"
	"snapbpf/internal/pagecache"
	"snapbpf/internal/sim"
)

// MM is the host memory manager: global counters shared by all
// address spaces of one simulated host.
type MM struct {
	eng   *sim.Engine
	cm    costmodel.Model
	cache *pagecache.Cache

	totalAnon int64
	spaces    []*AddressSpace
	obs       []Observer
}

// Observer receives address-space events for the correctness harness
// (internal/check) and the observability layer (internal/obs).
// Observers must not mutate MM state. Together the events let a checker mirror
// every PTE transition: file pages via FilePageMapped/FilePageUnmapped,
// anonymous pages via AnonInstalled/AnonDropped plus the CoW and
// zero-fill cases of FaultResolved.
type Observer interface {
	// SpaceCreated/SpaceReleased bracket an address space's lifetime.
	SpaceCreated(as *AddressSpace)
	SpaceReleased(as *AddressSpace)
	// FilePageMapped fires when a PTE starts referencing a shared
	// page-cache page (rmap reference taken); FilePageUnmapped fires
	// when that reference is dropped (munmap, CoW break, or release).
	FilePageMapped(as *AddressSpace, page int64, ino *pagecache.Inode, fileIdx int64)
	FilePageUnmapped(as *AddressSpace, page int64, ino *pagecache.Inode, fileIdx int64)
	// AnonInstalled fires for anonymous installs that bypass the fault
	// path: PV mirror installs (InstallAnonZeroPage), UFFDIO_ZEROPAGE
	// and UFFDIO_COPY. content is the installed page's content tag;
	// known is false for untagged UFFDIO_COPY (Uffd.Copy).
	AnonInstalled(as *AddressSpace, page int64, content uint64, known bool)
	// AnonDropped fires when an anonymous page is freed (munmap or
	// address-space release).
	AnonDropped(as *AddressSpace, page int64)
	// FaultResolved fires after HandleFault resolves, in the faulting
	// task's context.
	FaultResolved(p *sim.Proc, as *AddressSpace, page int64, write bool, kind FaultKind)
}

// AddObserver attaches o after the MM's other observers.
func (mm *MM) AddObserver(o Observer) { mm.obs = sim.AppendObserver(mm.obs, o) }

// Spaces returns every address space ever created on this MM,
// including released ones, in creation order.
func (mm *MM) Spaces() []*AddressSpace { return mm.spaces }

// New creates a host MM on top of the given page cache.
func New(eng *sim.Engine, cache *pagecache.Cache, cm costmodel.Model) *MM {
	return &MM{eng: eng, cm: cm, cache: cache}
}

// Cache returns the page cache backing file mappings.
func (mm *MM) Cache() *pagecache.Cache { return mm.cache }

// TotalAnonPages returns the system-wide anonymous page count.
func (mm *MM) TotalAnonPages() int64 { return mm.totalAnon }

// SystemMemoryPages returns the Figure 3c quantity: page-cache pages
// (shared) plus anonymous pages (per-VM).
func (mm *MM) SystemMemoryPages() int64 {
	return mm.cache.NrCachedPages() + mm.totalAnon
}

// VMAKind distinguishes the backing of a mapping.
type VMAKind int

// VMA kinds.
const (
	// VMAFilePrivate is a MAP_PRIVATE file mapping: reads resolve to
	// shared page-cache pages, writes break CoW into anonymous pages.
	// Firecracker maps snapshot memory files this way.
	VMAFilePrivate VMAKind = iota
	// VMAAnon is a MAP_ANONYMOUS|MAP_PRIVATE mapping: faults zero-fill.
	VMAAnon
)

func (k VMAKind) String() string {
	switch k {
	case VMAFilePrivate:
		return "file-private"
	case VMAAnon:
		return "anon"
	}
	return fmt.Sprintf("vmakind(%d)", int(k))
}

// VMA is one virtual memory area.
type VMA struct {
	Start  int64 // first page
	NPages int64
	Kind   VMAKind

	// Inode and FileOff (page offset of Start within the file) apply
	// to file-backed VMAs.
	Inode   *pagecache.Inode
	FileOff int64

	// uffd is non-nil when the range is registered with userfaultfd.
	uffd *Uffd
}

// End returns one past the last page.
func (v *VMA) End() int64 { return v.Start + v.NPages }

// filePage translates an address-space page to a file page index.
func (v *VMA) filePage(page int64) int64 { return v.FileOff + (page - v.Start) }

// FilePage is the exported form of filePage, for observers that need
// to resolve a faulted page to its backing file index.
func (v *VMA) FilePage(page int64) int64 { return v.filePage(page) }

// pte is the per-page mapping state of an address space.
type pte uint8

const (
	pteNone   pte = iota // not mapped
	pteFileRO            // maps a shared page-cache page, read-only
	pteAnon              // maps a private anonymous page, writable
)

// FaultKind reports how a fault was resolved, for per-VM statistics.
type FaultKind int

// Fault resolutions.
const (
	FaultMinor    FaultKind = iota // page was already mapped
	FaultFile                      // mapped a page-cache page
	FaultZeroFill                  // allocated a fresh anonymous page
	FaultCoW                       // broke copy-on-write
	FaultUffd                      // resolved by a userfaultfd handler
)

func (k FaultKind) String() string {
	switch k {
	case FaultMinor:
		return "minor"
	case FaultFile:
		return "file"
	case FaultZeroFill:
		return "zero-fill"
	case FaultCoW:
		return "cow"
	case FaultUffd:
		return "uffd"
	}
	return fmt.Sprintf("faultkind(%d)", int(k))
}

// FaultStats counts fault resolutions per address space.
type FaultStats struct {
	Minor    int64
	File     int64
	ZeroFill int64
	CoW      int64
	Uffd     int64
}

// AddressSpace is the VMM process's virtual memory: a page table plus
// a sorted list of VMAs. Page numbers are process-local.
type AddressSpace struct {
	mm      *MM
	name    string
	id      int
	nrPages int64
	pt      []pte
	vmas    []*VMA // sorted by Start, non-overlapping

	anonPages int64
	stats     FaultStats
}

// NewAddressSpace creates an empty address space of nrPages pages.
func (mm *MM) NewAddressSpace(name string, nrPages int64) *AddressSpace {
	as := &AddressSpace{
		mm:      mm,
		name:    name,
		id:      len(mm.spaces),
		nrPages: nrPages,
		pt:      make([]pte, nrPages),
	}
	mm.spaces = append(mm.spaces, as)
	for _, o := range mm.obs {
		o.SpaceCreated(as)
	}
	return as
}

// Name returns the address space name.
func (as *AddressSpace) Name() string { return as.name }

// ID returns the space's index in its MM's Spaces: spaces are numbered
// densely from 0 in creation order, so per-space observer state can
// live in a slice indexed by ID.
func (as *AddressSpace) ID() int { return as.id }

// NrPages returns the address space size in pages.
func (as *AddressSpace) NrPages() int64 { return as.nrPages }

// AnonPages returns the anonymous pages charged to this space.
func (as *AddressSpace) AnonPages() int64 { return as.anonPages }

// Stats returns the fault counters.
func (as *AddressSpace) Stats() FaultStats { return as.stats }

// MM returns the owning memory manager.
func (as *AddressSpace) MM() *MM { return as.mm }

// VMAs returns the current mappings, sorted by start page.
func (as *AddressSpace) VMAs() []*VMA { return as.vmas }

// Release returns all anonymous pages of the space (process exit).
// Page-cache pages survive, as they belong to the cache, but their
// rmap references from this space are dropped so they become
// reclaimable.
func (as *AddressSpace) Release() {
	as.mm.totalAnon -= as.anonPages
	as.anonPages = 0
	for pg := range as.pt {
		switch as.pt[pg] {
		case pteFileRO:
			as.unmapFilePage(int64(pg))
		case pteAnon:
			for _, o := range as.mm.obs {
				o.AnonDropped(as, int64(pg))
			}
		}
		as.pt[pg] = pteNone
	}
	as.vmas = nil
	for _, o := range as.mm.obs {
		o.SpaceReleased(as)
	}
}

// unmapFilePage drops the rmap reference a pteFileRO entry holds on
// its backing cache page. The covering VMA must still be present.
func (as *AddressSpace) unmapFilePage(page int64) {
	if v := as.FindVMA(page); v != nil && v.Inode != nil {
		v.Inode.UnmapPage(v.filePage(page))
		for _, o := range as.mm.obs {
			o.FilePageUnmapped(as, page, v.Inode, v.filePage(page))
		}
	}
}

func (as *AddressSpace) checkRange(start, n int64) {
	if start < 0 || n <= 0 || start+n > as.nrPages {
		panic(fmt.Sprintf("hostmm: %s: bad range [%d, %d) of %d", as.name, start, start+n, as.nrPages))
	}
}

// unmapRange removes any VMA coverage in [start, start+n), splitting
// partially overlapped VMAs, and drops existing PTEs in that range
// (munmap semantics: anonymous pages are freed).
func (as *AddressSpace) unmapRange(start, n int64) {
	end := start + n
	// Drop rmap references before the old VMAs disappear.
	for pg := start; pg < end; pg++ {
		if as.pt[pg] == pteFileRO {
			as.unmapFilePage(pg)
		}
	}
	var out []*VMA
	for _, v := range as.vmas {
		switch {
		case v.End() <= start || v.Start >= end:
			out = append(out, v)
		default:
			// Left fragment.
			if v.Start < start {
				left := *v
				left.NPages = start - v.Start
				out = append(out, &left)
			}
			// Right fragment.
			if v.End() > end {
				right := *v
				right.FileOff = v.FileOff + (end - v.Start)
				right.Start = end
				right.NPages = v.End() - end
				out = append(out, &right)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	as.vmas = out
	for pg := start; pg < end; pg++ {
		if as.pt[pg] == pteAnon {
			as.anonPages--
			as.mm.totalAnon--
			for _, o := range as.mm.obs {
				o.AnonDropped(as, pg)
			}
		}
		as.pt[pg] = pteNone
	}
}

// MMapFile maps nPages of ino starting at file page fileOff at
// address-space page start (MAP_FIXED|MAP_PRIVATE): existing mappings
// in the range are replaced, as FaaSnap relies on when layering
// working-set regions over the snapshot mapping.
func (as *AddressSpace) MMapFile(p *sim.Proc, start, nPages int64, ino *pagecache.Inode, fileOff int64) *VMA {
	as.checkRange(start, nPages)
	if fileOff < 0 || fileOff+nPages > ino.NrPages() {
		panic(fmt.Sprintf("hostmm: mmap beyond EOF: file pages [%d, %d) of %d", fileOff, fileOff+nPages, ino.NrPages()))
	}
	if p != nil {
		p.Sleep(as.mm.cm.Syscall + as.mm.cm.MmapRegion)
	}
	as.unmapRange(start, nPages)
	v := &VMA{Start: start, NPages: nPages, Kind: VMAFilePrivate, Inode: ino, FileOff: fileOff}
	as.insertVMA(v)
	return v
}

// MMapAnon maps nPages of anonymous memory at start (MAP_FIXED).
func (as *AddressSpace) MMapAnon(p *sim.Proc, start, nPages int64) *VMA {
	as.checkRange(start, nPages)
	if p != nil {
		p.Sleep(as.mm.cm.Syscall + as.mm.cm.MmapRegion)
	}
	as.unmapRange(start, nPages)
	v := &VMA{Start: start, NPages: nPages, Kind: VMAAnon}
	as.insertVMA(v)
	return v
}

func (as *AddressSpace) insertVMA(v *VMA) {
	as.vmas = append(as.vmas, v)
	sort.Slice(as.vmas, func(i, j int) bool { return as.vmas[i].Start < as.vmas[j].Start })
}

// FindVMA returns the VMA covering page, or nil.
func (as *AddressSpace) FindVMA(page int64) *VMA {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End() > page })
	if i < len(as.vmas) && as.vmas[i].Start <= page {
		return as.vmas[i]
	}
	return nil
}

// Mapped reports whether page has a valid PTE.
func (as *AddressSpace) Mapped(page int64) bool { return as.pt[page] != pteNone }

// MappedWritable reports whether page is mapped writable (anon).
func (as *AddressSpace) MappedWritable(page int64) bool { return as.pt[page] == pteAnon }

// installAnon maps page to a fresh anonymous page.
func (as *AddressSpace) installAnon(page int64) {
	if as.pt[page] == pteAnon {
		return
	}
	as.pt[page] = pteAnon
	as.anonPages++
	as.mm.totalAnon++
}

// InstallAnonZeroPage forcibly maps page to a zeroed anonymous page,
// bypassing the VMA backing. KVM's PV PTE-marking path uses this to
// serve mirror-PFN faults with anonymous memory instead of snapshot
// data (§3.2). It reports whether a new page was allocated.
func (as *AddressSpace) InstallAnonZeroPage(p *sim.Proc, page int64) bool {
	as.checkRange(page, 1)
	if as.pt[page] == pteAnon {
		return false
	}
	if p != nil {
		p.Sleep(as.mm.cm.ZeroFillPage)
	}
	as.installAnon(page)
	for _, o := range as.mm.obs {
		o.AnonInstalled(as, page, 0, true)
	}
	return true
}

// HandleFault resolves a fault at page with the given access type and
// returns how it was resolved. It blocks the process for the
// software and device time of the resolution path.
func (as *AddressSpace) HandleFault(p *sim.Proc, page int64, write bool) FaultKind {
	as.checkRange(page, 1)
	v := as.FindVMA(page)
	if v == nil {
		panic(fmt.Sprintf("hostmm: %s: segfault at page %d (no VMA)", as.name, page))
	}

	kind := as.resolveFault(p, page, write, v)
	for _, o := range as.mm.obs {
		o.FaultResolved(p, as, page, write, kind)
	}
	return kind
}

// resolveFault is the body of HandleFault, factored out so the
// observer sees every resolution exactly once.
func (as *AddressSpace) resolveFault(p *sim.Proc, page int64, write bool, v *VMA) FaultKind {
	switch as.pt[page] {
	case pteAnon:
		as.stats.Minor++
		return FaultMinor
	case pteFileRO:
		if !write {
			as.stats.Minor++
			return FaultMinor
		}
		// Write to a private file page: break CoW. The cache page
		// loses this space's rmap reference.
		p.Sleep(as.mm.cm.CoWCopyPage)
		as.unmapFilePage(page)
		as.installAnon(page)
		as.stats.CoW++
		return FaultCoW
	}

	// Not mapped.
	if v.uffd != nil {
		// Userfaultfd: the fault is handed to the registered userspace
		// handler, which must install the page (UFFDIO_COPY) before
		// returning. The round trip models fault delivery + wakeup.
		p.Sleep(as.mm.cm.UffdRoundTrip)
		v.uffd.faults++
		v.uffd.Handler(p, page)
		if as.pt[page] == pteNone {
			panic(fmt.Sprintf("hostmm: %s: uffd handler left page %d unmapped", as.name, page))
		}
		as.stats.Uffd++
		return FaultUffd
	}

	switch v.Kind {
	case VMAAnon:
		p.Sleep(as.mm.cm.ZeroFillPage)
		as.installAnon(page)
		as.stats.ZeroFill++
		return FaultZeroFill
	case VMAFilePrivate:
		// FaultPage returns the cache page pinned, so reclaim cannot
		// take it before it is copied (write) or mapped (read) below.
		v.Inode.FaultPage(p, v.filePage(page))
		if write {
			// Write fault: fetch then immediately CoW.
			p.Sleep(as.mm.cm.CoWCopyPage)
			v.Inode.Unpin(v.filePage(page))
			as.installAnon(page)
			as.stats.CoW++
			return FaultCoW
		}
		as.pt[page] = pteFileRO
		v.Inode.MapPage(v.filePage(page))
		v.Inode.Unpin(v.filePage(page))
		for _, o := range as.mm.obs {
			o.FilePageMapped(as, page, v.Inode, v.filePage(page))
		}
		as.stats.File++
		return FaultFile
	}
	panic("hostmm: unreachable")
}

// Uffd is a userfaultfd registration over a VMA.
type Uffd struct {
	as  *AddressSpace
	vma *VMA

	// Handler is the userspace fault handler; it runs in the faulting
	// task's context (the vCPU blocks while userspace resolves the
	// fault) and must install the page before returning.
	Handler func(p *sim.Proc, page int64)

	faults int64
	copies int64
}

// RegisterUffd registers the VMA range with userfaultfd. The handler
// may be set afterwards but must be non-nil before the first fault.
func (as *AddressSpace) RegisterUffd(v *VMA) *Uffd {
	if v.uffd != nil {
		panic("hostmm: VMA already registered with userfaultfd")
	}
	u := &Uffd{as: as, vma: v}
	v.uffd = u
	return u
}

// Faults returns the number of faults delivered to the handler.
func (u *Uffd) Faults() int64 { return u.faults }

// Copies returns the number of successful UFFDIO_COPY installs.
func (u *Uffd) Copies() int64 { return u.copies }

// ZeroPage is UFFDIO_ZEROPAGE: it installs a zeroed anonymous page at
// page without copying any data — how Faast resolves faults on frames
// its allocator metadata marks as free (§2.2). Returns false (EEXIST)
// if already mapped.
func (u *Uffd) ZeroPage(p *sim.Proc, page int64) bool {
	if page < u.vma.Start || page >= u.vma.End() {
		panic(fmt.Sprintf("hostmm: UFFDIO_ZEROPAGE outside registered range: page %d", page))
	}
	if u.as.pt[page] != pteNone {
		return false
	}
	if p != nil {
		p.Sleep(u.as.mm.cm.ZeroFillPage)
	}
	u.as.installAnon(page)
	u.copies++
	for _, o := range u.as.mm.obs {
		o.AnonInstalled(u.as, page, 0, true)
	}
	return true
}

// Copy is UFFDIO_COPY: it installs an anonymous page with
// caller-provided contents at page. It returns false (EEXIST) if the
// page is already mapped. The copy cost covers allocation, data copy
// and page-table install.
func (u *Uffd) Copy(p *sim.Proc, page int64) bool {
	return u.copy(p, page, 0, false)
}

// CopyTag is Copy with the installed content's tag declared, so the
// correctness harness can track what the handler wrote. Schemes use
// this; Copy remains for callers with untracked contents.
func (u *Uffd) CopyTag(p *sim.Proc, page int64, content uint64) bool {
	return u.copy(p, page, content, true)
}

func (u *Uffd) copy(p *sim.Proc, page int64, content uint64, known bool) bool {
	if page < u.vma.Start || page >= u.vma.End() {
		panic(fmt.Sprintf("hostmm: UFFDIO_COPY outside registered range: page %d", page))
	}
	if u.as.pt[page] != pteNone {
		return false
	}
	if p != nil {
		p.Sleep(u.as.mm.cm.UffdCopyPage)
	}
	u.as.installAnon(page)
	u.copies++
	for _, o := range u.as.mm.obs {
		o.AnonInstalled(u.as, page, content, known)
	}
	return true
}
