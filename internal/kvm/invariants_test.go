package kvm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/costmodel"
	"snapbpf/internal/guest"
	"snapbpf/internal/hostmm"
	"snapbpf/internal/kprobe"
	"snapbpf/internal/pagecache"
	"snapbpf/internal/sim"
)

// TestNestedPagingInvariants drives random guest access sequences
// (reads, writes, allocations, frees) through the full nested-paging
// stack and checks structural invariants afterwards.
func TestNestedPagingInvariants(t *testing.T) {
	f := func(seed int64, pv, forceWrite bool) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		dev := blockdev.New(eng, blockdev.MicronSATA5300())
		cache := pagecache.New(eng, dev, kprobe.NewRegistry(), costmodel.Default())
		cache.RAPages = 0
		mm := hostmm.New(eng, cache, costmodel.Default())
		ino := cache.NewInode("snap", 512)
		as := mm.NewAddressSpace("vmm", 512)
		g, err := guest.NewKernel(guest.Config{NrPages: 512, StatePages: 128, PVMarking: pv}, int(seed%7))
		if err != nil {
			return false
		}
		ok := true
		eng.Go("vcpu", func(p *sim.Proc) {
			as.MMapFile(p, 0, 512, ino, 0)
			vm := New(g, as, 0, costmodel.Default())
			vm.ForceWriteMapping = forceWrite
			var handles []int32
			next := int32(1)
			for step := 0; step < 300; step++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4, 5: // state access
					vm.Access(p, rng.Int63n(128), rng.Intn(3) == 0)
				case 6, 7: // alloc + touch
					n := int64(1 + rng.Intn(16))
					if err := g.Alloc(next, n); err != nil {
						continue // OOM acceptable
					}
					pfns, _ := g.AllocPFNs(next)
					handles = append(handles, next)
					next++
					for _, pfn := range pfns {
						vm.Access(p, pfn, true)
					}
				case 8: // free
					if len(handles) > 0 {
						i := rng.Intn(len(handles))
						h := handles[i]
						handles = append(handles[:i], handles[i+1:]...)
						if err := g.Free(h); err != nil {
							ok = false
						}
					}
				case 9: // re-access random mapped state page
					vm.Access(p, rng.Int63n(128), false)
				}
			}

			// Invariants:
			st := vm.Stats()
			// (1) Without PV there are never mirror faults; with PV,
			// any fresh-frame write produced one.
			if !pv && st.MirrorFaults != 0 {
				ok = false
			}
			// (2) Every write-mapped EPT entry is backed by a
			// writable (anonymous) host page.
			for pfn := int64(0); pfn < 512; pfn++ {
				if vm.MappedWritable(pfn) && !as.MappedWritable(pfn) {
					ok = false
				}
			}
			// (3) Anonymous page accounting matches the host stats:
			// CoW + zero-fill + uffd + mirror installs, no leaks.
			hs := as.Stats()
			minAnon := hs.CoW + hs.ZeroFill
			if as.AnonPages() < minAnon {
				ok = false
			}
			// (4) Unpatched KVM converts reads to writes; patched KVM
			// never reports ReadAsWrite.
			if !forceWrite && st.ReadAsWrite != 0 {
				ok = false
			}
		})
		eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryAccountingConservation checks that the global anon counter
// equals the sum of per-space counters under random multi-VM load.
func TestMemoryAccountingConservation(t *testing.T) {
	eng := sim.NewEngine()
	dev := blockdev.New(eng, blockdev.MicronSATA5300())
	cache := pagecache.New(eng, dev, kprobe.NewRegistry(), costmodel.Default())
	cache.RAPages = 0
	mm := hostmm.New(eng, cache, costmodel.Default())
	ino := cache.NewInode("snap", 256)

	spaces := make([]*hostmm.AddressSpace, 4)
	for i := range spaces {
		i := i
		spaces[i] = mm.NewAddressSpace("vm", 256)
		rng := rand.New(rand.NewSource(int64(i)))
		eng.Go("vm", func(p *sim.Proc) {
			as := spaces[i]
			as.MMapFile(p, 0, 256, ino, 0)
			g, _ := guest.NewKernel(guest.Config{NrPages: 256, StatePages: 64, PVMarking: i%2 == 0}, i)
			vm := New(g, as, 0, costmodel.Default())
			for step := 0; step < 200; step++ {
				vm.Access(p, rng.Int63n(64), rng.Intn(2) == 0)
			}
		})
	}
	eng.Run()
	var sum int64
	for _, as := range spaces {
		sum += as.AnonPages()
	}
	if mm.TotalAnonPages() != sum {
		t.Fatalf("global anon %d != sum of spaces %d", mm.TotalAnonPages(), sum)
	}
	spaces[0].Release()
	sum = 0
	for _, as := range spaces {
		sum += as.AnonPages()
	}
	if mm.TotalAnonPages() != sum {
		t.Fatalf("after release: global anon %d != sum %d", mm.TotalAnonPages(), sum)
	}
}
