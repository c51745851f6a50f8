package vmm

import (
	"fmt"

	"snapbpf/internal/guest"
	"snapbpf/internal/kvm"
	"snapbpf/internal/sim"
	"snapbpf/internal/snapshot"
	"snapbpf/internal/trace"
	"snapbpf/internal/workload"
)

// This file implements snapshot *creation*: the firecracker lifecycle
// that produces the memory file every experiment restores from — boot
// a fresh sandbox, run the function's initialization/pre-warm phase,
// pause, and serialize guest memory ("the memory of the VM sandbox
// after the function has been initialized and pre-warmed", §1).
//
// BuildImage is the fast path used by the experiment harness; BootFresh
// + TakeSnapshot is the full lifecycle, and the two are equivalence-
// tested.

// BootFresh creates a sandbox with pristine anonymous guest memory (a
// cold boot, not a snapshot restore) whose guest kernel starts with an
// empty state area and a full buddy pool.
func (h *Host) BootFresh(p *sim.Proc, name string, fn workload.Function, zeroOnFree bool) (*MicroVM, error) {
	p.Sleep(h.CM.VMRestoreBase) // VM creation and device setup
	g, err := guest.NewKernel(guest.Config{
		NrPages:    fn.MemPages(),
		StatePages: fn.StatePages(),
		ZeroOnFree: zeroOnFree,
	}, 0)
	if err != nil {
		return nil, err
	}
	as := h.MM.NewAddressSpace(name, fn.MemPages())
	vm := &MicroVM{
		Host:       h,
		Name:       name,
		Fn:         fn,
		Guest:      g,
		AS:         as,
		ZeroOnFree: zeroOnFree,
		restored:   true,
		started:    p.Now(),
	}
	vm.KVM = kvm.New(g, as, 0, h.CM)
	for _, o := range h.kvmObs {
		vm.KVM.AddObserver(o)
	}
	return vm, nil
}

// RunInit replays the function's initialization trace (writing the
// state area, warming the runtime) inside the booted sandbox.
func (vm *MicroVM) RunInit(p *sim.Proc) error {
	tr := InitTrace(vm.Fn)
	if _, err := vm.Invoke(p, tr); err != nil {
		return fmt.Errorf("vmm: init phase: %w", err)
	}
	return nil
}

// TakeSnapshot pauses the sandbox and serializes its guest memory into
// a MemoryImage:
//
//   - frames the guest wrote (KVM dirty tracking) carry deterministic
//     nonzero content tags;
//   - frames in the buddy free pool are stale (their last contents) or
//     zero under the zero-on-free guest patch;
//   - never-touched frames are zero (fresh anonymous memory);
//   - the allocator free list is embedded as metadata (Faast's input).
func (vm *MicroVM) TakeSnapshot() *snapshot.MemoryImage {
	n := vm.Fn.MemPages()
	img := &snapshot.MemoryImage{
		NrPages:    n,
		StatePages: vm.Fn.StatePages(),
		PageTags:   make([]uint64, n),
	}
	buddy := vm.Guest.Buddy()
	for pfn := int64(0); pfn < n; pfn++ {
		free := buddy.IsFree(pfn)
		switch {
		case free && (vm.ZeroOnFree || !vm.KVM.Dirty(pfn)):
			img.PageTags[pfn] = 0
		case vm.KVM.Dirty(pfn):
			if free {
				img.PageTags[pfn] = uint64(pfn)*40503 + 7 // stale freed data
			} else {
				img.PageTags[pfn] = uint64(pfn)*2654435761 + 1
			}
		default:
			img.PageTags[pfn] = 0
		}
		if free {
			img.FreePFNs = append(img.FreePFNs, pfn)
		}
	}
	return img
}

// InitTrace generates the initialization/pre-warm phase of a function:
// the runtime and model state is written sequentially into the state
// area, with some ephemeral allocation churn (imports, compilation)
// that leaves stale data in the buddy pool — the pages §2.2 is about.
func InitTrace(fn workload.Function) *trace.Trace {
	var ops []trace.Op
	state := fn.StatePages()
	// Write the whole state area (loading code, models, pre-warming).
	for pg := int64(0); pg < state; pg++ {
		ops = append(ops, trace.Op{Kind: trace.OpAccess, Page: pg, Write: true})
	}
	// Ephemeral init churn: allocate ~1/4 of the free pool in four
	// blocks, touch it, free it — classic import-time garbage.
	pool := fn.MemPages() - state
	churn := pool / 4
	if churn > 0 {
		per := churn / 4
		if per == 0 {
			per = 1
		}
		for b := int32(0); b < 4; b++ {
			ops = append(ops, trace.Op{Kind: trace.OpAlloc, Handle: b + 1, NPages: int32(per)})
			for off := int32(0); off < int32(per); off++ {
				ops = append(ops, trace.Op{Kind: trace.OpTouch, Handle: b + 1, Offset: off, Write: true})
			}
		}
		for b := int32(0); b < 4; b++ {
			ops = append(ops, trace.Op{Kind: trace.OpFree, Handle: b + 1})
		}
	}
	return &trace.Trace{Ops: ops}
}

// CreateSnapshotImage runs the whole creation lifecycle on a throwaway
// sandbox of this host and returns the serialized image. It is the
// slow, faithful counterpart of BuildImage.
func (h *Host) CreateSnapshotImage(p *sim.Proc, fn workload.Function, zeroOnFree bool) (*snapshot.MemoryImage, error) {
	vm, err := h.BootFresh(p, fn.Name+"-snapshotter", fn, zeroOnFree)
	if err != nil {
		return nil, err
	}
	vm.AS.MMapAnon(p, 0, fn.MemPages())
	if err := vm.RunInit(p); err != nil {
		return nil, err
	}
	img := vm.TakeSnapshot()
	vm.Shutdown()
	if err := img.Validate(); err != nil {
		return nil, fmt.Errorf("vmm: created invalid snapshot: %w", err)
	}
	return img, nil
}
