// Package vmm models the firecracker-style virtual machine monitor:
// it aggregates one simulated host (block device, page cache, memory
// manager, kprobes, eBPF) and provides the microVM lifecycle the paper
// instruments — restore a sandbox from a snapshot memory file, set up
// its guest-memory backend, and replay a function invocation through
// KVM nested paging while measuring end-to-end latency.
package vmm

import (
	"fmt"
	"time"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/costmodel"
	"snapbpf/internal/ebpf"
	"snapbpf/internal/guest"
	"snapbpf/internal/hostmm"
	"snapbpf/internal/kprobe"
	"snapbpf/internal/kvm"
	"snapbpf/internal/pagecache"
	"snapbpf/internal/sim"
	"snapbpf/internal/snapshot"
	"snapbpf/internal/trace"
	"snapbpf/internal/workload"
)

// Host is one simulated machine: everything a prefetcher or microVM
// needs to run.
type Host struct {
	Eng    *sim.Engine
	Dev    *blockdev.Device
	Cache  *pagecache.Cache
	MM     *hostmm.MM
	Probes *kprobe.Registry
	BPF    *ebpf.VM
	CM     costmodel.Model

	obs    []Observer
	kvmObs []kvm.Observer // attached to every sandbox's KVM on restore
}

// Observer receives sandbox lifecycle events for the observability
// layer (internal/obs). Observers must not mutate VM or host state.
type Observer interface {
	// RestoreBegin fires at the start of Host.Restore, before the
	// fixed restore cost is charged.
	RestoreBegin(p *sim.Proc, name string)
	// RestoreEnd fires at the end of a successful Restore, once the
	// sandbox's KVM carries the host's KVM observers.
	RestoreEnd(p *sim.Proc, vm *MicroVM)
	// VMPrepared fires from MarkPrepared with the recorded
	// preparation share.
	VMPrepared(p *sim.Proc, vm *MicroVM, prep time.Duration)
	// InvokeBegin/InvokeEnd bracket a successful Invoke; InvokeEnd
	// carries the invocation's statistics.
	InvokeBegin(p *sim.Proc, vm *MicroVM)
	InvokeEnd(p *sim.Proc, vm *MicroVM, st InvokeStats)
}

// AddObserver attaches o after the host's other lifecycle observers.
func (h *Host) AddObserver(o Observer) { h.obs = sim.AppendObserver(h.obs, o) }

// AddKVMObserver attaches o to the KVM of every sandbox restored from
// now on, including the ones schemes create internally during their
// record phases.
func (h *Host) AddKVMObserver(o kvm.Observer) { h.kvmObs = sim.AppendObserver(h.kvmObs, o) }

// NewHost assembles a host around the given device parameters on its
// own private simulation engine.
func NewHost(devParams blockdev.Params) *Host {
	return NewHostOnEngine(sim.NewEngine(), devParams)
}

// NewHostOnEngine assembles a host on an existing engine, so several
// hosts can share one virtual clock (the cluster simulator builds a
// region this way). Every other layer — device, page cache, memory
// manager, probes, eBPF — stays private to the host.
//
// Note the eBPF VM clock is bound to eng, so hosts sharing an engine
// also share ktime; that is exactly the region-wide clock contract.
func NewHostOnEngine(eng *sim.Engine, devParams blockdev.Params) *Host {
	cm := costmodel.Default()
	dev := blockdev.New(eng, devParams)
	probes := kprobe.NewRegistry()
	cache := pagecache.New(eng, dev, probes, cm)
	mm := hostmm.New(eng, cache, cm)
	bpf := ebpf.NewVM()
	bpf.SetClock(func() uint64 { return uint64(eng.Now()) })
	h := &Host{Eng: eng, Dev: dev, Cache: cache, MM: mm, Probes: probes, BPF: bpf, CM: cm}
	probes.Env = h
	return h
}

// BuildImage constructs the snapshot memory image for a function:
// state pages carry deterministic nonzero content tags; free-pool
// pages carry stale nonzero tags (data freed before the snapshot was
// taken), or zero tags when the guest runs FaaSnap's zero-on-free
// patch. The guest allocator's free list is embedded as metadata.
func BuildImage(fn workload.Function, zeroOnFree bool) *snapshot.MemoryImage {
	nr, state := fn.MemPages(), fn.StatePages()
	img := &snapshot.MemoryImage{
		NrPages:    nr,
		StatePages: state,
		PageTags:   make([]uint64, nr),
	}
	for i := int64(0); i < state; i++ {
		img.PageTags[i] = uint64(i)*2654435761 + 1 // nonzero, deterministic
	}
	for i := state; i < nr; i++ {
		if zeroOnFree {
			img.PageTags[i] = 0
		} else {
			img.PageTags[i] = uint64(i)*40503 + 7 // stale garbage
		}
		img.FreePFNs = append(img.FreePFNs, i)
	}
	return img
}

// RegisterSnapshot places the image's memory file on the host's
// storage, returning its page-cache inode.
func (h *Host) RegisterSnapshot(name string, img *snapshot.MemoryImage) *pagecache.Inode {
	return h.Cache.NewInode(name, img.NrPages)
}

// InvokeStats aggregates one invocation's measurements.
type InvokeStats struct {
	// E2E is restore + memory preparation + function execution, the
	// paper's end-to-end invocation latency.
	E2E time.Duration
	// Exec is the function execution portion only.
	Exec time.Duration
	// Prepare is the prefetcher's PrepareVM portion (e.g. SnapBPF's
	// offset loading, REAP's prefetch kickoff).
	Prepare time.Duration

	KVM  kvm.Stats
	Host hostmm.FaultStats
}

// MicroVM is one VM sandbox restored from a snapshot.
type MicroVM struct {
	Host  *Host
	Name  string
	Fn    workload.Function
	Image *snapshot.MemoryImage

	// SnapInode is the snapshot memory file this sandbox restores from.
	SnapInode *pagecache.Inode

	Guest *guest.Kernel
	AS    *hostmm.AddressSpace
	KVM   *kvm.VM

	// ZeroOnFree mirrors the guest patch state (FaaSnap).
	ZeroOnFree bool

	restored bool
	stats    InvokeStats
	started  sim.Time
}

// RestoreConfig selects guest patches and KVM behaviour for a restore.
type RestoreConfig struct {
	// PVMarking enables the SnapBPF guest PTE-marking patch.
	PVMarking bool
	// ZeroOnFree enables the FaaSnap guest zero-on-free patch.
	ZeroOnFree bool
	// ForceWriteMapping selects the unpatched KVM read-fault
	// behaviour (see kvm.VM).
	ForceWriteMapping bool
	// AllocSalt perturbs the guest allocator between invocations.
	AllocSalt int
}

// Restore loads VM state from the snapshot: it charges the fixed
// restore cost and creates the guest kernel, host address space and
// nested page tables. Guest memory is *not* yet mapped — the memory
// backend (plain mmap, uffd, or a prefetcher's arrangement) is
// installed afterwards, before Invoke.
func (h *Host) Restore(p *sim.Proc, name string, fn workload.Function,
	img *snapshot.MemoryImage, snapInode *pagecache.Inode, cfg RestoreConfig) (*MicroVM, error) {

	if img.NrPages != fn.MemPages() {
		return nil, fmt.Errorf("vmm: image has %d pages but %s needs %d", img.NrPages, fn.Name, fn.MemPages())
	}
	for _, o := range h.obs {
		o.RestoreBegin(p, name)
	}
	start := p.Now()
	p.Sleep(h.CM.VMRestoreBase)

	g, err := guest.NewKernel(fn.GuestConfig(cfg.PVMarking, cfg.ZeroOnFree), cfg.AllocSalt)
	if err != nil {
		return nil, err
	}
	as := h.MM.NewAddressSpace(name, img.NrPages)
	vm := &MicroVM{
		Host:       h,
		Name:       name,
		Fn:         fn,
		Image:      img,
		SnapInode:  snapInode,
		Guest:      g,
		AS:         as,
		ZeroOnFree: cfg.ZeroOnFree,
		restored:   true,
		started:    start,
	}
	vm.KVM = kvm.New(g, as, 0, h.CM)
	vm.KVM.ForceWriteMapping = cfg.ForceWriteMapping
	for _, o := range h.kvmObs {
		vm.KVM.AddObserver(o)
	}
	for _, o := range h.obs {
		o.RestoreEnd(p, vm)
	}
	return vm, nil
}

// MapSnapshotDefault installs the stock firecracker memory backend: a
// private mapping of the whole snapshot memory file.
func (vm *MicroVM) MapSnapshotDefault(p *sim.Proc) *hostmm.VMA {
	return vm.AS.MMapFile(p, 0, vm.Image.NrPages, vm.SnapInode, 0)
}

// MarkPrepared records the time spent in prefetcher preparation; call
// once PrepareVM work is done.
func (vm *MicroVM) MarkPrepared(p *sim.Proc) {
	vm.stats.Prepare = p.Now().Sub(vm.started) - vm.Host.CM.VMRestoreBase
	for _, o := range vm.Host.obs {
		o.VMPrepared(p, vm, vm.stats.Prepare)
	}
}

// Invoke replays the function trace through nested paging and returns
// the invocation statistics. It may only be called once per restore.
func (vm *MicroVM) Invoke(p *sim.Proc, tr *trace.Trace) (InvokeStats, error) {
	if !vm.restored {
		return InvokeStats{}, fmt.Errorf("vmm: %s: invoke before restore", vm.Name)
	}
	vm.restored = false
	for _, o := range vm.Host.obs {
		o.InvokeBegin(p, vm)
	}
	execStart := p.Now()

	for i := range tr.Ops {
		op := &tr.Ops[i]
		switch op.Kind {
		case trace.OpCompute:
			p.Sleep(op.Gap)
		case trace.OpAccess:
			vm.KVM.Access(p, op.Page, op.Write)
		case trace.OpAlloc:
			if err := vm.Guest.Alloc(op.Handle, int64(op.NPages)); err != nil {
				return InvokeStats{}, fmt.Errorf("vmm: %s: %w", vm.Name, err)
			}
		case trace.OpTouch:
			pfn, ok := vm.Guest.PFNAt(op.Handle, int64(op.Offset))
			if !ok {
				return InvokeStats{}, fmt.Errorf("vmm: %s: bad touch handle=%d off=%d", vm.Name, op.Handle, op.Offset)
			}
			vm.KVM.Access(p, pfn, op.Write)
		case trace.OpFree:
			if vm.ZeroOnFree {
				// FaaSnap's guest patch zeroes pages as they are
				// freed: each page is written once more.
				vm.Guest.ForEachPFN(op.Handle, func(pfn int64) {
					vm.KVM.Access(p, pfn, true)
					p.Sleep(vm.Host.CM.ZeroFillPage / 4) // memset of a hot page
				})
			}
			if err := vm.Guest.Free(op.Handle); err != nil {
				return InvokeStats{}, fmt.Errorf("vmm: %s: %w", vm.Name, err)
			}
		}
	}

	end := p.Now()
	vm.stats.Exec = end.Sub(execStart)
	vm.stats.E2E = end.Sub(vm.started)
	vm.stats.KVM = vm.KVM.Stats()
	vm.stats.Host = vm.AS.Stats()
	for _, o := range vm.Host.obs {
		o.InvokeEnd(p, vm, vm.stats)
	}
	return vm.stats, nil
}

// Shutdown releases the sandbox's anonymous memory (process exit).
func (vm *MicroVM) Shutdown() {
	vm.AS.Release()
}
