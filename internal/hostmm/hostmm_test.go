package hostmm

import (
	"testing"
	"time"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/costmodel"
	"snapbpf/internal/kprobe"
	"snapbpf/internal/pagecache"
	"snapbpf/internal/sim"
)

type world struct {
	eng   *sim.Engine
	cache *pagecache.Cache
	mm    *MM
}

func newWorld() *world {
	eng := sim.NewEngine()
	dev := blockdev.New(eng, blockdev.MicronSATA5300())
	cache := pagecache.New(eng, dev, kprobe.NewRegistry(), costmodel.Default())
	cache.RAPages = 0
	return &world{eng: eng, cache: cache, mm: New(eng, cache, costmodel.Default())}
}

func TestAnonVMAZeroFill(t *testing.T) {
	w := newWorld()
	as := w.mm.NewAddressSpace("vm0", 1024)
	w.eng.Go("f", func(p *sim.Proc) {
		as.MMapAnon(p, 0, 1024)
		if k := as.HandleFault(p, 5, true); k != FaultZeroFill {
			t.Errorf("kind = %v, want zero-fill", k)
		}
		if k := as.HandleFault(p, 5, true); k != FaultMinor {
			t.Errorf("second fault = %v, want minor", k)
		}
	})
	w.eng.Run()
	if as.AnonPages() != 1 || w.mm.TotalAnonPages() != 1 {
		t.Fatalf("anon = %d / %d, want 1/1", as.AnonPages(), w.mm.TotalAnonPages())
	}
}

func TestFilePrivateReadMapsSharedPage(t *testing.T) {
	w := newWorld()
	ino := w.cache.NewInode("snap", 4096)
	as := w.mm.NewAddressSpace("vm0", 1024)
	w.eng.Go("f", func(p *sim.Proc) {
		as.MMapFile(p, 0, 1024, ino, 100)
		if k := as.HandleFault(p, 7, false); k != FaultFile {
			t.Errorf("kind = %v, want file", k)
		}
	})
	w.eng.Run()
	if !ino.Resident(107) {
		t.Fatal("file page 107 not in page cache (FileOff translation)")
	}
	if as.AnonPages() != 0 {
		t.Fatalf("read fault allocated anon pages: %d", as.AnonPages())
	}
}

func TestFilePrivateWriteBreaksCoW(t *testing.T) {
	w := newWorld()
	ino := w.cache.NewInode("snap", 4096)
	as := w.mm.NewAddressSpace("vm0", 1024)
	w.eng.Go("f", func(p *sim.Proc) {
		as.MMapFile(p, 0, 1024, ino, 0)
		if k := as.HandleFault(p, 3, false); k != FaultFile {
			t.Errorf("read = %v", k)
		}
		if k := as.HandleFault(p, 3, true); k != FaultCoW {
			t.Errorf("write = %v, want cow", k)
		}
		// After CoW the page is private and writable: minor faults only.
		if k := as.HandleFault(p, 3, false); k != FaultMinor {
			t.Errorf("post-cow read = %v, want minor", k)
		}
	})
	w.eng.Run()
	if as.AnonPages() != 1 {
		t.Fatalf("anon = %d, want 1 (the CoW copy)", as.AnonPages())
	}
	// The cache page still exists (shared by others).
	if !ino.Resident(3) {
		t.Fatal("cache page evicted by CoW")
	}
}

func TestDirectWriteFaultCoWs(t *testing.T) {
	w := newWorld()
	ino := w.cache.NewInode("snap", 4096)
	as := w.mm.NewAddressSpace("vm0", 64)
	w.eng.Go("f", func(p *sim.Proc) {
		as.MMapFile(p, 0, 64, ino, 0)
		if k := as.HandleFault(p, 0, true); k != FaultCoW {
			t.Errorf("kind = %v, want cow (fetch+copy)", k)
		}
	})
	w.eng.Run()
	if as.AnonPages() != 1 {
		t.Fatalf("anon = %d", as.AnonPages())
	}
}

func TestDedupAcrossAddressSpaces(t *testing.T) {
	// Ten VMs read the same snapshot pages: one cache copy, zero anon.
	w := newWorld()
	ino := w.cache.NewInode("snap", 4096)
	for i := 0; i < 10; i++ {
		as := w.mm.NewAddressSpace("vm", 256)
		w.eng.Go("vm", func(p *sim.Proc) {
			as.MMapFile(p, 0, 256, ino, 0)
			for pg := int64(0); pg < 100; pg++ {
				as.HandleFault(p, pg, false)
			}
		})
	}
	w.eng.Run()
	if got := w.mm.SystemMemoryPages(); got != 100 {
		t.Fatalf("system memory = %d pages, want 100 (dedup)", got)
	}
}

func TestNoDedupeForAnon(t *testing.T) {
	// Ten VMs each zero-fill the same 100 logical pages: 1000 anon.
	w := newWorld()
	for i := 0; i < 10; i++ {
		as := w.mm.NewAddressSpace("vm", 256)
		w.eng.Go("vm", func(p *sim.Proc) {
			as.MMapAnon(p, 0, 256)
			for pg := int64(0); pg < 100; pg++ {
				as.HandleFault(p, pg, true)
			}
		})
	}
	w.eng.Run()
	if got := w.mm.SystemMemoryPages(); got != 1000 {
		t.Fatalf("system memory = %d pages, want 1000 (no dedup)", got)
	}
}

func TestUffdFaultInvokesHandler(t *testing.T) {
	w := newWorld()
	as := w.mm.NewAddressSpace("vm0", 256)
	var handled []int64
	w.eng.Go("f", func(p *sim.Proc) {
		v := as.MMapAnon(p, 0, 256)
		u := as.RegisterUffd(v)
		u.Handler = func(hp *sim.Proc, page int64) {
			handled = append(handled, page)
			if !u.Copy(hp, page) {
				t.Error("copy failed")
			}
		}
		if k := as.HandleFault(p, 42, false); k != FaultUffd {
			t.Errorf("kind = %v, want uffd", k)
		}
	})
	w.eng.Run()
	if len(handled) != 1 || handled[0] != 42 {
		t.Fatalf("handled = %v", handled)
	}
	if as.AnonPages() != 1 {
		t.Fatalf("anon = %d", as.AnonPages())
	}
}

func TestUffdCopyPreinstallPreventsFault(t *testing.T) {
	w := newWorld()
	as := w.mm.NewAddressSpace("vm0", 256)
	w.eng.Go("f", func(p *sim.Proc) {
		v := as.MMapAnon(p, 0, 256)
		u := as.RegisterUffd(v)
		u.Handler = func(hp *sim.Proc, page int64) {
			t.Errorf("handler invoked for pre-installed page %d", page)
		}
		if !u.Copy(p, 10) {
			t.Error("preinstall copy failed")
		}
		if u.Copy(p, 10) {
			t.Error("second copy should return EEXIST=false")
		}
		if k := as.HandleFault(p, 10, false); k != FaultMinor {
			t.Errorf("kind = %v, want minor", k)
		}
	})
	w.eng.Run()
}

func TestUffdZeroPage(t *testing.T) {
	w := newWorld()
	as := w.mm.NewAddressSpace("vm0", 64)
	w.eng.Go("f", func(p *sim.Proc) {
		v := as.MMapAnon(p, 0, 64)
		u := as.RegisterUffd(v)
		u.Handler = func(hp *sim.Proc, page int64) {
			u.ZeroPage(hp, page)
		}
		if k := as.HandleFault(p, 7, false); k != FaultUffd {
			t.Errorf("kind = %v", k)
		}
		if u.ZeroPage(p, 7) {
			t.Error("second zeropage should return EEXIST=false")
		}
	})
	w.eng.Run()
	if as.AnonPages() != 1 {
		t.Fatalf("anon = %d", as.AnonPages())
	}
	// Zero-page installs never touch the device.
	if w.cache.Device().Stats().Requests != 0 {
		t.Fatal("UFFDIO_ZEROPAGE did I/O")
	}
}

func TestUffdRoundTripCost(t *testing.T) {
	w := newWorld()
	cm := costmodel.Default()
	as := w.mm.NewAddressSpace("vm0", 64)
	var took time.Duration
	w.eng.Go("f", func(p *sim.Proc) {
		v := as.MMapAnon(p, 0, 64)
		u := as.RegisterUffd(v)
		u.Handler = func(hp *sim.Proc, page int64) { u.Copy(hp, page) }
		t0 := p.Now()
		as.HandleFault(p, 0, false)
		took = p.Now().Sub(t0)
	})
	w.eng.Run()
	want := cm.UffdRoundTrip + cm.UffdCopyPage
	if took != want {
		t.Fatalf("uffd fault took %v, want %v", took, want)
	}
}

func TestMMapFixedReplacesAndSplits(t *testing.T) {
	w := newWorld()
	snap := w.cache.NewInode("snap", 4096)
	ws := w.cache.NewInode("ws", 4096)
	as := w.mm.NewAddressSpace("vm0", 1024)
	w.eng.Go("f", func(p *sim.Proc) {
		as.MMapFile(p, 0, 1024, snap, 0)
		// Overlay a WS region in the middle, as FaaSnap does.
		as.MMapFile(p, 100, 50, ws, 7)
		vmas := as.VMAs()
		if len(vmas) != 3 {
			t.Fatalf("VMAs = %d, want 3 (split)", len(vmas))
		}
		if vmas[0].Start != 0 || vmas[0].NPages != 100 || vmas[0].Inode != snap {
			t.Errorf("left fragment wrong: %+v", vmas[0])
		}
		if vmas[1].Start != 100 || vmas[1].NPages != 50 || vmas[1].Inode != ws || vmas[1].FileOff != 7 {
			t.Errorf("overlay wrong: %+v", vmas[1])
		}
		if vmas[2].Start != 150 || vmas[2].NPages != 874 || vmas[2].FileOff != 150 {
			t.Errorf("right fragment wrong: %+v", vmas[2])
		}
		// Fault in overlay: reads ws file page 7+5.
		as.HandleFault(p, 105, false)
	})
	w.eng.Run()
	if !ws.Resident(12) {
		t.Fatal("overlay fault read wrong file/offset")
	}
}

func TestUnmapFreesAnonPages(t *testing.T) {
	w := newWorld()
	as := w.mm.NewAddressSpace("vm0", 256)
	w.eng.Go("f", func(p *sim.Proc) {
		as.MMapAnon(p, 0, 256)
		for pg := int64(0); pg < 50; pg++ {
			as.HandleFault(p, pg, true)
		}
		// Remap over [0,25): those anon pages are freed.
		as.MMapAnon(p, 0, 25)
	})
	w.eng.Run()
	if as.AnonPages() != 25 {
		t.Fatalf("anon = %d, want 25", as.AnonPages())
	}
	if w.mm.TotalAnonPages() != 25 {
		t.Fatalf("global anon = %d, want 25", w.mm.TotalAnonPages())
	}
}

func TestReleaseReturnsAnon(t *testing.T) {
	w := newWorld()
	as := w.mm.NewAddressSpace("vm0", 64)
	w.eng.Go("f", func(p *sim.Proc) {
		as.MMapAnon(p, 0, 64)
		for pg := int64(0); pg < 10; pg++ {
			as.HandleFault(p, pg, true)
		}
	})
	w.eng.Run()
	as.Release()
	if w.mm.TotalAnonPages() != 0 {
		t.Fatalf("global anon = %d after release", w.mm.TotalAnonPages())
	}
}

func TestInstallAnonZeroPage(t *testing.T) {
	w := newWorld()
	ino := w.cache.NewInode("snap", 4096)
	as := w.mm.NewAddressSpace("vm0", 64)
	w.eng.Go("f", func(p *sim.Proc) {
		as.MMapFile(p, 0, 64, ino, 0)
		// PV path: serve with anon despite file backing; no I/O.
		t0 := p.Now()
		if !as.InstallAnonZeroPage(p, 9) {
			t.Error("install failed")
		}
		if p.Now().Sub(t0) > 10*time.Microsecond {
			t.Error("PV anon install did I/O")
		}
		if as.InstallAnonZeroPage(p, 9) {
			t.Error("double install allocated twice")
		}
		if k := as.HandleFault(p, 9, true); k != FaultMinor {
			t.Errorf("fault after install = %v, want minor", k)
		}
	})
	w.eng.Run()
	if ino.Resident(9) {
		t.Fatal("PV install fetched the snapshot page")
	}
	if as.AnonPages() != 1 {
		t.Fatalf("anon = %d", as.AnonPages())
	}
}

func TestFindVMA(t *testing.T) {
	w := newWorld()
	as := w.mm.NewAddressSpace("vm0", 1000)
	w.eng.Go("f", func(p *sim.Proc) {
		as.MMapAnon(p, 100, 50)
		as.MMapAnon(p, 300, 50)
	})
	w.eng.Run()
	if v := as.FindVMA(99); v != nil {
		t.Fatal("found VMA before mapping")
	}
	if v := as.FindVMA(100); v == nil || v.Start != 100 {
		t.Fatal("missed first VMA start")
	}
	if v := as.FindVMA(149); v == nil || v.Start != 100 {
		t.Fatal("missed first VMA end")
	}
	if v := as.FindVMA(150); v != nil {
		t.Fatal("found VMA in gap")
	}
	if v := as.FindVMA(320); v == nil || v.Start != 300 {
		t.Fatal("missed second VMA")
	}
}

func TestSegfaultPanics(t *testing.T) {
	w := newWorld()
	as := w.mm.NewAddressSpace("vm0", 64)
	panicked := false
	w.eng.Go("f", func(p *sim.Proc) {
		defer func() { panicked = recover() != nil }()
		as.HandleFault(p, 5, false)
	})
	w.eng.Run()
	if !panicked {
		t.Fatal("fault with no VMA did not panic")
	}
}

// TestSpaceIDIsSpacesIndex pins AddressSpace.ID: it is the space's
// index in MM.Spaces, released spaces included, and each MM numbers
// its own spaces from 0.
func TestSpaceIDIsSpacesIndex(t *testing.T) {
	w := newWorld()
	for i, name := range []string{"vm0", "vm1", "vm2"} {
		as := w.mm.NewAddressSpace(name, 64)
		if i == 1 {
			as.Release()
		}
	}
	spaces := w.mm.Spaces()
	if len(spaces) != 3 {
		t.Fatalf("%d spaces, want 3", len(spaces))
	}
	for i, as := range spaces {
		if as.ID() != i {
			t.Errorf("%s: ID %d, index in Spaces %d", as.Name(), as.ID(), i)
		}
	}
	if id := newWorld().mm.NewAddressSpace("other", 64).ID(); id != 0 {
		t.Errorf("a new MM's first space has ID %d, want 0", id)
	}
}
