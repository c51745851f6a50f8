package kvm

import (
	"testing"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/costmodel"
	"snapbpf/internal/guest"
	"snapbpf/internal/hostmm"
	"snapbpf/internal/kprobe"
	"snapbpf/internal/pagecache"
	"snapbpf/internal/sim"
)

type fixture struct {
	eng   *sim.Engine
	cache *pagecache.Cache
	mm    *hostmm.MM
	ino   *pagecache.Inode
	as    *hostmm.AddressSpace
	g     *guest.Kernel
	vm    *VM
}

// newFixture builds a VM with 1024 guest pages (256 state) backed by a
// private mapping of a snapshot inode.
func newFixture(t *testing.T, pv, forceWrite bool) *fixture {
	t.Helper()
	eng := sim.NewEngine()
	dev := blockdev.New(eng, blockdev.MicronSATA5300())
	cache := pagecache.New(eng, dev, kprobe.NewRegistry(), costmodel.Default())
	cache.RAPages = 0
	mm := hostmm.New(eng, cache, costmodel.Default())
	ino := cache.NewInode("snap.mem", 1024)
	as := mm.NewAddressSpace("vmm0", 1024)
	g, err := guest.NewKernel(guest.Config{NrPages: 1024, StatePages: 256, PVMarking: pv}, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{eng: eng, cache: cache, mm: mm, ino: ino, as: as, g: g}
	eng.Go("setup", func(p *sim.Proc) {
		as.MMapFile(p, 0, 1024, ino, 0)
	})
	eng.Run()
	f.vm = New(g, as, 0, costmodel.Default())
	f.vm.ForceWriteMapping = forceWrite
	return f
}

func (f *fixture) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	f.eng.Go("vcpu", fn)
	f.eng.Run()
}

func TestReadFaultMapsSharedSnapshotPage(t *testing.T) {
	f := newFixture(t, false, false)
	f.run(t, func(p *sim.Proc) {
		f.vm.Access(p, 10, false)
	})
	if !f.ino.Resident(10) {
		t.Fatal("snapshot page not fetched")
	}
	if f.as.AnonPages() != 0 {
		t.Fatalf("read fault allocated %d anon pages", f.as.AnonPages())
	}
	if !f.vm.Mapped(10) || f.vm.MappedWritable(10) {
		t.Fatal("EPT should map page read-only")
	}
	st := f.vm.Stats()
	if st.NestedFaults != 1 {
		t.Fatalf("NestedFaults = %d", st.NestedFaults)
	}
}

func TestSecondAccessIsTLBHit(t *testing.T) {
	f := newFixture(t, false, false)
	f.run(t, func(p *sim.Proc) {
		f.vm.Access(p, 10, false)
		f.vm.Access(p, 10, false)
	})
	if f.vm.Stats().TLBHits != 1 {
		t.Fatalf("TLBHits = %d, want 1", f.vm.Stats().TLBHits)
	}
	if f.vm.Stats().NestedFaults != 1 {
		t.Fatalf("NestedFaults = %d, want 1", f.vm.Stats().NestedFaults)
	}
}

func TestWriteFaultCoWsSnapshotPage(t *testing.T) {
	f := newFixture(t, false, false)
	f.run(t, func(p *sim.Proc) {
		f.vm.Access(p, 20, false) // read first: shared RO
		f.vm.Access(p, 20, true)  // write: CoW
	})
	if f.as.AnonPages() != 1 {
		t.Fatalf("anon = %d, want 1 (CoW copy)", f.as.AnonPages())
	}
	if !f.vm.MappedWritable(20) {
		t.Fatal("EPT not upgraded to RW after CoW")
	}
	if f.as.Stats().CoW != 1 {
		t.Fatalf("host CoW = %d", f.as.Stats().CoW)
	}
}

func TestUnpatchedKVMForcesWriteMapping(t *testing.T) {
	f := newFixture(t, false, true)
	f.run(t, func(p *sim.Proc) {
		f.vm.Access(p, 30, false) // read, but unpatched KVM write-maps
	})
	if f.as.AnonPages() != 1 {
		t.Fatalf("anon = %d, want 1 (forced CoW)", f.as.AnonPages())
	}
	if f.vm.Stats().ReadAsWrite != 1 {
		t.Fatalf("ReadAsWrite = %d", f.vm.Stats().ReadAsWrite)
	}
}

func TestPatchedKVMPreservesSharing(t *testing.T) {
	// Two VMs over the same snapshot inode, patched KVM: one cache
	// page, no anon.
	eng := sim.NewEngine()
	dev := blockdev.New(eng, blockdev.MicronSATA5300())
	cache := pagecache.New(eng, dev, kprobe.NewRegistry(), costmodel.Default())
	cache.RAPages = 0
	mm := hostmm.New(eng, cache, costmodel.Default())
	ino := cache.NewInode("snap.mem", 1024)
	for i := 0; i < 2; i++ {
		as := mm.NewAddressSpace("vmm", 1024)
		g, _ := guest.NewKernel(guest.Config{NrPages: 1024, StatePages: 256}, 0)
		eng.Go("vm", func(p *sim.Proc) {
			as.MMapFile(p, 0, 1024, ino, 0)
			vm := New(g, as, 0, costmodel.Default())
			vm.Access(p, 5, false)
		})
	}
	eng.Run()
	if got := mm.SystemMemoryPages(); got != 1 {
		t.Fatalf("system memory = %d pages, want 1 (shared)", got)
	}
}

func TestOpportunisticWriteMapping(t *testing.T) {
	f := newFixture(t, false, false)
	f.run(t, func(p *sim.Proc) {
		f.vm.Access(p, 40, true) // write: CoW, host page now writable
		// Drop the EPT entry by... there is no shootdown here, so use
		// a second guest frame backed by the same host state: not
		// possible; instead check the stat path via a fresh VM below.
		_ = p
	})
	// Second VM sharing the address space window: its read fault hits
	// the already-writable host page and write-maps opportunistically.
	g2, _ := guest.NewKernel(guest.Config{NrPages: 1024, StatePages: 256}, 0)
	vm2 := New(g2, f.as, 0, costmodel.Default())
	f.run(t, func(p *sim.Proc) {
		vm2.Access(p, 40, false)
	})
	if vm2.Stats().Opportunistic != 1 {
		t.Fatalf("Opportunistic = %d, want 1", vm2.Stats().Opportunistic)
	}
	if !vm2.MappedWritable(40) {
		t.Fatal("not write-mapped")
	}
}

func TestMirrorFaultServedAnonymously(t *testing.T) {
	f := newFixture(t, true, false)
	f.run(t, func(p *sim.Proc) {
		if err := f.g.Alloc(1, 4); err != nil {
			t.Fatal(err)
		}
		pfns, _ := f.g.AllocPFNs(1)
		for _, pfn := range pfns {
			f.vm.Access(p, pfn, true)
		}
	})
	st := f.vm.Stats()
	if st.MirrorFaults != 4 {
		t.Fatalf("MirrorFaults = %d, want 4", st.MirrorFaults)
	}
	if f.as.AnonPages() != 4 {
		t.Fatalf("anon = %d, want 4", f.as.AnonPages())
	}
	// Crucially: no snapshot I/O for allocated frames.
	if f.cache.NrCachedPages() != 0 {
		t.Fatalf("snapshot pages fetched for fresh allocations: %d", f.cache.NrCachedPages())
	}
}

func TestMirrorFaultMapsBothViews(t *testing.T) {
	f := newFixture(t, true, false)
	f.run(t, func(p *sim.Proc) {
		_ = f.g.Alloc(1, 1)
		pfns, _ := f.g.AllocPFNs(1)
		f.vm.Access(p, pfns[0], true) // mirror fault
		before := f.vm.Stats().NestedFaults
		f.vm.Access(p, pfns[0], true) // reuse via original gPFN: no fault
		if f.vm.Stats().NestedFaults != before {
			t.Error("reuse of PV-mapped frame faulted again")
		}
	})
}

func TestWithoutPVAllocationsFetchSnapshot(t *testing.T) {
	f := newFixture(t, false, false)
	f.run(t, func(p *sim.Proc) {
		_ = f.g.Alloc(1, 4)
		pfns, _ := f.g.AllocPFNs(1)
		for _, pfn := range pfns {
			f.vm.Access(p, pfn, true)
		}
	})
	// Unnecessary I/O: the stale snapshot pages were fetched and
	// immediately CoWed.
	if f.cache.NrCachedPages() == 0 {
		t.Fatal("expected snapshot fetches for allocation faults without PV")
	}
	if f.vm.Stats().MirrorFaults != 0 {
		t.Fatal("mirror faults without PV marking")
	}
}

func TestAccessOutOfRangePanics(t *testing.T) {
	f := newFixture(t, false, false)
	panicked := false
	f.run(t, func(p *sim.Proc) {
		defer func() { panicked = recover() != nil }()
		f.vm.Access(p, 5000, false)
	})
	if !panicked {
		t.Fatal("out-of-range access did not panic")
	}
}
