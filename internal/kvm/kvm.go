// Package kvm models the host hypervisor's nested paging: extended
// page tables mapping guest page frames to the VMM's host address
// space, the nested-fault handler, detection of SnapBPF's paravirtual
// mirror-PFN marks (§3.2), and the read-fault write-mapping behaviour
// the paper patches (§4, Memory).
package kvm

import (
	"fmt"

	"snapbpf/internal/costmodel"
	"snapbpf/internal/guest"
	"snapbpf/internal/hostmm"
	"snapbpf/internal/sim"
)

// eptPerm is the mapping state of one gPFN in the extended page tables.
type eptPerm uint8

const (
	eptNone eptPerm = iota
	eptRO
	eptRW
)

// Stats counts nested-paging events for one VM.
type Stats struct {
	NestedFaults  int64 // EPT violations taken
	MirrorFaults  int64 // PV mirror-PFN faults served with anon memory
	ReadAsWrite   int64 // read faults forcibly write-mapped (unpatched KVM)
	Opportunistic int64 // read faults write-mapped because already writable
	TLBHits       int64 // accesses resolved without an exit
}

// VM is the hypervisor view of one microVM: a guest-physical address
// space of NrPages frames backed by a window of the VMM's host
// address space starting at HostBase.
type VM struct {
	Guest    *guest.Kernel
	AS       *hostmm.AddressSpace
	HostBase int64 // host page backing gPFN 0
	NrPages  int64

	// ForceWriteMapping reproduces the unpatched-KVM behaviour the
	// paper observed: read nested faults are handled as writes,
	// forcing the host to CoW page-cache pages and destroying
	// deduplication. The paper's patch (the default, false) write-maps
	// opportunistically: only pages already faulted in and writable.
	ForceWriteMapping bool

	cm    costmodel.Model
	ept   []eptPerm
	dirty []bool // guest frames written since VM creation
	obs   []Observer
	stats Stats
}

// Observer receives guest-access events for the correctness harness
// (internal/check) and the observability layer (internal/obs).
// Observers must not mutate VM state. AccessBegin/AccessEnd bracket the
// access so host-level events (CoW breaks, uffd copies) occurring
// in between can be attributed to the guest access that caused them.
type Observer interface {
	AccessBegin(p *sim.Proc, v *VM, pfn int64, write bool)
	// AccessEnd fires once the access has a valid translation; mirror
	// reports that the access was served through the PV mirror-PFN
	// path.
	AccessEnd(p *sim.Proc, v *VM, pfn int64, write, mirror bool)
}

// AddObserver attaches o after the VM's other observers.
func (v *VM) AddObserver(o Observer) { v.obs = sim.AppendObserver(v.obs, o) }

// New creates the nested-paging state for a VM whose guest memory is
// backed by as at host pages [hostBase, hostBase+g.Config().NrPages).
func New(g *guest.Kernel, as *hostmm.AddressSpace, hostBase int64, cm costmodel.Model) *VM {
	n := g.Config().NrPages
	if hostBase < 0 || hostBase+n > as.NrPages() {
		panic(fmt.Sprintf("kvm: memslot [%d,%d) outside host address space of %d pages",
			hostBase, hostBase+n, as.NrPages()))
	}
	return &VM{
		Guest:    g,
		AS:       as,
		HostBase: hostBase,
		NrPages:  n,
		cm:       cm,
		ept:      make([]eptPerm, n),
		dirty:    make([]bool, n),
	}
}

// Stats returns the nested-paging counters.
func (v *VM) Stats() Stats { return v.stats }

// hostPage translates a guest frame to its backing host page.
func (v *VM) hostPage(pfn int64) int64 { return v.HostBase + pfn }

// Access performs one guest memory access to frame pfn. It applies
// the guest kernel's PV PTE marking (first touch of a fresh frame
// faults at the mirrored gPFN), takes a nested fault if the EPT lacks
// a sufficient mapping, and charges the process accordingly.
func (v *VM) Access(p *sim.Proc, pfn int64, write bool) {
	if pfn < 0 || pfn >= v.NrPages {
		panic(fmt.Sprintf("kvm: guest access beyond memory: pfn %d of %d", pfn, v.NrPages))
	}
	if write {
		v.dirty[pfn] = true
	}
	for _, o := range v.obs {
		o.AccessBegin(p, v, pfn, write)
	}
	gpfn := v.Guest.TouchPFN(pfn)
	if guest.IsMirror(gpfn) {
		v.handleMirrorFault(p, gpfn)
		for _, o := range v.obs {
			o.AccessEnd(p, v, pfn, write, true)
		}
		return
	}
	switch v.ept[pfn] {
	case eptRW:
		v.stats.TLBHits++
		v.accessEnd(p, pfn, write)
		return
	case eptRO:
		if !write {
			v.stats.TLBHits++
			v.accessEnd(p, pfn, write)
			return
		}
	}
	v.handleNestedFault(p, pfn, write)
	v.accessEnd(p, pfn, write)
}

func (v *VM) accessEnd(p *sim.Proc, pfn int64, write bool) {
	for _, o := range v.obs {
		o.AccessEnd(p, v, pfn, write, false)
	}
}

// handleMirrorFault serves a PV mirror-PFN fault: the host allocates
// anonymous memory instead of fetching the snapshot page, then maps it
// at both the mirrored and the original gPFN so subsequent reuse of
// the frame points at the same anonymous page (§3.2).
func (v *VM) handleMirrorFault(p *sim.Proc, gpfn uint64) {
	pfn := int64(guest.Unmirror(gpfn))
	if pfn < 0 || pfn >= v.NrPages {
		panic(fmt.Sprintf("kvm: mirror fault beyond memory: pfn %d", pfn))
	}
	v.stats.NestedFaults++
	v.stats.MirrorFaults++
	p.Sleep(v.cm.MinorFault) // VM exit + fault decode
	v.AS.InstallAnonZeroPage(p, v.hostPage(pfn))
	// Two EPT entries: the mirrored view and the original gPFN.
	p.Sleep(2 * v.cm.EPTMapPage)
	v.ept[pfn] = eptRW
}

// handleNestedFault resolves an ordinary EPT violation through the
// host address space.
func (v *VM) handleNestedFault(p *sim.Proc, pfn int64, write bool) {
	v.stats.NestedFaults++
	p.Sleep(v.cm.MinorFault) // VM exit + walk

	hostWrite := write
	if !write {
		switch {
		case v.ForceWriteMapping:
			// Unpatched KVM: the read fault is forcibly handled as a
			// write, CoWing private file pages.
			hostWrite = true
			v.stats.ReadAsWrite++
		case v.AS.MappedWritable(v.hostPage(pfn)):
			// Patched KVM: opportunistically write-map only pages that
			// are already faulted in and writable.
			hostWrite = true
			v.stats.Opportunistic++
		}
	}

	v.AS.HandleFault(p, v.hostPage(pfn), hostWrite)
	p.Sleep(v.cm.EPTMapPage)
	if hostWrite {
		v.ept[pfn] = eptRW
	} else {
		v.ept[pfn] = eptRO
	}
}

// Dirty reports whether guest frame pfn has been written since the VM
// was created — KVM-style dirty tracking, used when serializing a
// snapshot of a freshly initialized sandbox.
func (v *VM) Dirty(pfn int64) bool { return v.dirty[pfn] }

// DirtyPages returns the number of written guest frames.
func (v *VM) DirtyPages() int64 {
	var n int64
	for _, d := range v.dirty {
		if d {
			n++
		}
	}
	return n
}

// Mapped reports whether gPFN pfn has any EPT mapping (tests).
func (v *VM) Mapped(pfn int64) bool { return v.ept[pfn] != eptNone }

// MappedWritable reports whether gPFN pfn is write-mapped (tests).
func (v *VM) MappedWritable(pfn int64) bool { return v.ept[pfn] == eptRW }
