// Package reap implements the REAP baseline (Ustiugov et al., ASPLOS
// '21) as characterized in §2.1 of the SnapBPF paper: working sets are
// captured through userspace page-fault handling (userfaultfd),
// serialized to a separate file *with page contents*, and prefetched
// with direct I/O into per-sandbox anonymous memory installed via
// UFFDIO_COPY. Because every installed page is private anonymous
// memory, concurrent sandboxes of the same function cannot share
// working-set pages.
//
// Faast (Bai et al., HPDC '24) is the same mechanism plus one snapshot
// pre-scan of the guest allocator's metadata (NewFaast): frames free at
// snapshot time are served with zero pages and never enter the working
// set. For REAP that free-frame set is empty.
package reap

import (
	"fmt"
	"strings"

	"snapbpf/internal/faults"
	"snapbpf/internal/hostmm"
	"snapbpf/internal/pagecache"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/sim"
	"snapbpf/internal/snapshot"
	"snapbpf/internal/vmm"
)

// REAP is the userfaultfd record-and-prefetch baseline.
type REAP struct {
	// DirectIO selects O_DIRECT for working-set and snapshot reads
	// (the paper: REAP uses direct I/O "to bypass the page cache and
	// avoid the overhead of intermediate memory copies"). The
	// buffered alternative exists for the ablation bench.
	DirectIO bool

	name string
	scan bool // pre-scan the allocator metadata for free frames

	ws      *snapshot.PagedWS
	wsInode *pagecache.Inode
	free    map[int64]bool // frames free at snapshot time
}

// New returns REAP with the paper's configuration.
func New() *REAP {
	return &REAP{DirectIO: true, name: "REAP"}
}

// NewFaast returns Faast: REAP plus the allocator-metadata pre-scan.
func NewFaast() *REAP {
	return &REAP{DirectIO: true, name: "Faast", scan: true}
}

// Name implements prefetch.Prefetcher.
func (r *REAP) Name() string { return r.name }

// tag is the lowercase name proc, VM and inode names carry.
func (r *REAP) tag() string { return strings.ToLower(r.name) }

// Capabilities implements prefetch.Prefetcher (Table 1 row).
func (r *REAP) Capabilities() prefetch.Capabilities {
	return prefetch.Capabilities{
		Mechanism:             "Userfaultfd (User-space)",
		OnDiskWSSerialization: true,
		NeedsSnapshotScan:     r.scan,
	}
}

// RestoreConfig implements prefetch.Prefetcher: stock guest.
func (r *REAP) RestoreConfig(salt int) vmm.RestoreConfig {
	return vmm.RestoreConfig{AllocSalt: salt}
}

// WorkingSet exposes the recorded artifact (tests, wsinspect).
func (r *REAP) WorkingSet() *snapshot.PagedWS { return r.ws }

// Record implements prefetch.Prefetcher: one invocation behind a
// userfaultfd handler that fetches every faulting page and logs the
// ones it read from the snapshot; the working set (offsets AND
// contents) is then serialized to its own file. Faast first walks the
// allocator metadata embedded in the snapshot for the free-frame set
// (§2.2: "Faast relies on the allocator metadata of the VM kernel to
// identify pages that are not actively used in the snapshot").
func (r *REAP) Record(p *sim.Proc, env *prefetch.Env) error {
	if r.scan {
		r.free = make(map[int64]bool, len(env.Image.FreePFNs))
		for _, pfn := range env.Image.FreePFNs {
			r.free[pfn] = true
		}
	}
	vm, err := env.Host.Restore(p, env.Fn.Name+"-"+r.tag()+"-record", env.Fn, env.Image, env.SnapInode,
		vmm.RestoreConfig{AllocSalt: 0})
	if err != nil {
		return err
	}
	vma := vm.AS.MMapAnon(p, 0, env.Image.NrPages)
	u := vm.AS.RegisterUffd(vma)

	var order []int64
	u.Handler = func(hp *sim.Proc, page int64) {
		if r.fetch(hp, env, u, page) {
			order = append(order, page)
		}
	}
	vm.MarkPrepared(p)
	if _, err := vm.Invoke(p, env.RecordTrace); err != nil {
		return err
	}
	vm.Shutdown()

	ws := &snapshot.PagedWS{Pages: order, Tags: make([]uint64, len(order))}
	for i, pg := range order {
		ws.Tags[i] = env.Image.PageTags[pg]
	}
	if err := ws.Validate(env.Image.NrPages); err != nil {
		return fmt.Errorf("%s: recorded invalid working set: %w", r.tag(), err)
	}
	r.ws = ws
	// Serialize the working set (with contents) to its own file.
	r.wsInode = env.Host.Cache.NewInode(env.Fn.Name+"."+r.tag()+"-ws", ws.TotalPages())
	env.NotifyArtifact(r.wsInode, ws.Tags)
	env.NotifyRecordDone(r.Name(), ws.TotalPages())
	return nil
}

// fetch resolves one fault: a zero page (UFFDIO_ZEROPAGE) for a frame
// that was free at snapshot time, otherwise a snapshot read honouring
// DirectIO and a UFFDIO_COPY. O_DIRECT surfaces transient media errors
// to userspace, so the handler retries with backoff; the buffered path
// retries inside the kernel. It reports whether it read the snapshot.
func (r *REAP) fetch(p *sim.Proc, env *prefetch.Env, u *hostmm.Uffd, page int64) bool {
	if r.free[page] {
		u.ZeroPage(p, page)
		return false
	}
	if r.DirectIO {
		faults.Retry(p, env.Faults, func(try int) error {
			return env.SnapInode.DirectReadAttempt(p, page, 1, try)
		})
	} else {
		env.SnapInode.BufferedRead(p, page, 1)
	}
	u.CopyTag(p, page, env.Image.PageTags[page])
	return true
}

// PrepareVM implements prefetch.Prefetcher: guest memory becomes an
// anonymous uffd-registered region; a prefetch thread streams the
// working-set file and installs each page with UFFDIO_COPY while the
// vCPU runs. Faults on working-set pages wait for the installer;
// faults on other pages go to fetch.
func (r *REAP) PrepareVM(p *sim.Proc, env *prefetch.Env, vm *vmm.MicroVM) error {
	if r.ws == nil {
		return fmt.Errorf("%s: PrepareVM before Record", r.tag())
	}
	vma := vm.AS.MMapAnon(p, 0, env.Image.NrPages)
	u := vm.AS.RegisterUffd(vma)

	if env.Faults.ArtifactCorrupt() {
		// The WS file is corrupt or truncated: degrade to pure demand
		// paging — the record handler minus the logging. The free-frame
		// set survives (it came from the snapshot scan, not the WS
		// file). Every other fault costs a round trip to userspace
		// plus a snapshot read, but the invocation completes.
		env.Faults.CountFallback()
		env.NotifyDegraded(r.Name(), vm, "corrupt ws artifact")
		u.Handler = func(hp *sim.Proc, page int64) { r.fetch(hp, env, u, page) }
		env.NotifyPrepareDone(r.Name(), vm)
		return nil
	}

	ws, wsInode := r.ws, r.wsInode
	pending := make(map[int64]*sim.Waiter, len(ws.Pages)) // ws page -> install completion
	for _, pg := range ws.Pages {
		pending[pg] = env.Host.Eng.NewWaiter()
	}

	u.Handler = func(hp *sim.Proc, page int64) {
		if w, ok := pending[page]; ok {
			hp.Wait(w)
			if !vm.AS.Mapped(page) {
				// Extremely late fault raced the installer's map scan;
				// install directly from the already-read WS chunk.
				u.CopyTag(hp, page, env.Image.PageTags[page])
			}
			return
		}
		r.fetch(hp, env, u, page)
	}

	// Prefetch thread: stream the WS file and install pages eagerly.
	env.Host.Eng.Go(vm.Name+"-"+r.tag()+"-prefetch", func(pp *sim.Proc) {
		total := int64(len(ws.Pages))
		for base := int64(0); base < total; base += prefetch.ChunkPages {
			n := min(prefetch.ChunkPages, total-base)
			// The WS file is read sequentially by file offset.
			env.NotifyPrefetchIssued(pp, r.Name(), vm, base, n)
			if r.DirectIO {
				faults.Retry(pp, env.Faults, func(try int) error {
					return wsInode.DirectReadAttempt(pp, base, n, try)
				})
			} else {
				wsInode.BufferedRead(pp, base, n)
			}
			for i := base; i < base+n; i++ {
				page := ws.Pages[i]
				u.CopyTag(pp, page, ws.Tags[i])
				pending[page].Fire()
			}
		}
	})
	env.NotifyPrepareDone(r.Name(), vm)
	return nil
}

// FinishVM implements prefetch.Prefetcher.
func (r *REAP) FinishVM(env *prefetch.Env, vm *vmm.MicroVM) {}
