// Package faasnap implements the FaaSnap baseline (Ao et al., EuroSys
// '22) as characterized in §2.1–2.2 of the SnapBPF paper:
//
//   - the working set is captured with mincore(2) over the snapshot
//     mapping after a record invocation;
//   - working-set regions are coalesced across small gaps to bound the
//     number of mmap calls, inflating the serialized working-set file
//     (I/O amplification);
//   - each coalesced region of the WS file is mmap'ed over the
//     snapshot mapping, and a userspace thread prefetches it with
//     buffered reads, so concurrent sandboxes share the pages through
//     the page cache;
//   - the guest kernel zeroes pages on free, and a snapshot
//     pre-processing scan maps the zero regions to anonymous memory.
package faasnap

import (
	"fmt"

	"snapbpf/internal/pagecache"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/sim"
	"snapbpf/internal/snapshot"
	"snapbpf/internal/vmm"
)

// DefaultCoalesceGap is the maximum gap (in pages) absorbed when
// merging working-set regions.
const DefaultCoalesceGap = 32

// FaaSnap is the mincore/mmap baseline.
type FaaSnap struct {
	// CoalesceGap is the region-merge threshold in pages; larger
	// values mean fewer mmap regions but a more inflated WS file.
	CoalesceGap int64

	ws          *snapshot.RegionWS
	wsInode     *pagecache.Inode
	zeroRegions []snapshot.Group
}

// New returns FaaSnap with the paper's configuration.
func New() *FaaSnap {
	return &FaaSnap{CoalesceGap: DefaultCoalesceGap}
}

// Name implements prefetch.Prefetcher.
func (f *FaaSnap) Name() string { return "FaaSnap" }

// Capabilities implements prefetch.Prefetcher (Table 1 row).
func (f *FaaSnap) Capabilities() prefetch.Capabilities {
	return prefetch.Capabilities{
		Mechanism:             "mincore / mmap (User-space)",
		OnDiskWSSerialization: true,
		InMemoryWSDedup:       true,
		NeedsSnapshotScan:     true, // zero-page content scan
	}
}

// RestoreConfig implements prefetch.Prefetcher: FaaSnap patches the
// guest to zero pages on free.
func (f *FaaSnap) RestoreConfig(salt int) vmm.RestoreConfig {
	return vmm.RestoreConfig{ZeroOnFree: true, AllocSalt: salt}
}

// WorkingSet exposes the recorded artifact.
func (f *FaaSnap) WorkingSet() *snapshot.RegionWS { return f.ws }

// ZeroRegions exposes the zero-scan result.
func (f *FaaSnap) ZeroRegions() []snapshot.Group { return f.zeroRegions }

// scanZeroPages is the snapshot pre-processing pass: a full content
// scan of the memory file for zero pages (§2.2: FaaSnap "scans the
// snapshot file for zero pages and maps those zero regions of the
// snapshot file to anonymous memory").
func (f *FaaSnap) scanZeroPages(env *prefetch.Env) {
	var zeros []int64
	for pg, tag := range env.Image.PageTags {
		if tag == 0 {
			zeros = append(zeros, int64(pg))
		}
	}
	f.zeroRegions = snapshot.GroupPages(zeros)
}

// mapSandbox installs the FaaSnap memory layout: snapshot mapping with
// zero regions overlaid as anonymous memory.
func (f *FaaSnap) mapSandbox(p *sim.Proc, env *prefetch.Env, vm *vmm.MicroVM) {
	vm.MapSnapshotDefault(p)
	for _, z := range f.zeroRegions {
		vm.AS.MMapAnon(p, z.Start, z.NPages)
	}
}

// Record implements prefetch.Prefetcher: invoke once over the plain
// layout with readahead disabled, then harvest the page-cache
// residency with mincore and coalesce it into regions.
func (f *FaaSnap) Record(p *sim.Proc, env *prefetch.Env) error {
	f.scanZeroPages(env)
	vm, err := env.Host.Restore(p, env.Fn.Name+"-faasnap-record", env.Fn, env.Image, env.SnapInode,
		vmm.RestoreConfig{ZeroOnFree: true, AllocSalt: 0})
	if err != nil {
		return err
	}
	env.SnapInode.SetReadahead(0) // capture true faults only
	f.mapSandbox(p, env, vm)
	vm.MarkPrepared(p)
	if _, err := vm.Invoke(p, env.RecordTrace); err != nil {
		return err
	}
	vm.Shutdown()
	env.SnapInode.SetReadahead(-1)

	// mincore over the whole snapshot mapping.
	resident := env.SnapInode.Mincore(0, env.Image.NrPages)
	p.Sleep(env.Host.CM.Syscall * 4) // mincore calls over the region
	var pages []int64
	for pg, r := range resident {
		if r {
			pages = append(pages, int64(pg))
		}
	}
	regions := snapshot.CoalesceGroups(snapshot.GroupPages(pages), f.CoalesceGap)
	ws := &snapshot.RegionWS{Regions: regions, WSPages: int64(len(pages))}
	if err := ws.Validate(env.Image.NrPages); err != nil {
		return fmt.Errorf("faasnap: recorded invalid working set: %w", err)
	}
	f.ws = ws
	f.wsInode = env.Host.Cache.NewInode(env.Fn.Name+".faasnap-ws", ws.TotalPages())
	// The WS file stores the regions' snapshot contents back to back.
	tags := make([]uint64, 0, ws.TotalPages())
	for _, reg := range ws.Regions {
		for k := int64(0); k < reg.NPages; k++ {
			tags = append(tags, env.Image.PageTags[reg.Start+k])
		}
	}
	env.NotifyArtifact(f.wsInode, tags)
	env.NotifyRecordDone(f.Name(), ws.WSPages)
	return nil
}

// PrepareVM implements prefetch.Prefetcher: overlay each working-set
// region of the WS file over the snapshot mapping (one mmap per
// region), then prefetch the WS file sequentially with buffered reads
// from a userspace thread.
func (f *FaaSnap) PrepareVM(p *sim.Proc, env *prefetch.Env, vm *vmm.MicroVM) error {
	if f.ws == nil {
		return fmt.Errorf("faasnap: PrepareVM before Record")
	}
	f.mapSandbox(p, env, vm)

	if env.Faults.ArtifactCorrupt() {
		// The WS file is unreadable: skip the overlays and the prefetch
		// thread. The plain snapshot layout (with zero regions) demand
		// pages through the cache, whose buffered path absorbs device
		// errors with kernel-level retries.
		env.Faults.CountFallback()
		env.NotifyDegraded(f.Name(), vm, "corrupt ws artifact")
		env.NotifyPrepareDone(f.Name(), vm)
		return nil
	}

	// Each region becomes its own mapping of the WS file — the mmap
	// count FaaSnap's coalescing exists to bound.
	fileOff := int64(0)
	for _, reg := range f.ws.Regions {
		vm.AS.MMapFile(p, reg.Start, reg.NPages, f.wsInode, fileOff)
		fileOff += reg.NPages
	}

	wsInode, total := f.wsInode, f.ws.TotalPages()
	env.Host.Eng.Go(vm.Name+"-faasnap-prefetch", func(pp *sim.Proc) {
		for base := int64(0); base < total; base += prefetch.ChunkPages {
			n := min(prefetch.ChunkPages, total-base)
			// Buffered reads through the page cache: this is what
			// enables cross-sandbox dedup, at the cost of the
			// userspace copy per page.
			env.NotifyPrefetchIssued(pp, f.Name(), vm, base, n)
			wsInode.BufferedRead(pp, base, n)
		}
	})
	env.NotifyPrepareDone(f.Name(), vm)
	return nil
}

// FinishVM implements prefetch.Prefetcher.
func (f *FaaSnap) FinishVM(env *prefetch.Env, vm *vmm.MicroVM) {}
