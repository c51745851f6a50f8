package vmm

import (
	"strings"
	"testing"
	"time"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/sim"
	"snapbpf/internal/trace"
	"snapbpf/internal/workload"
)

func smallFn() workload.Function {
	return workload.Function{
		Name: "tiny", MemMiB: 16, StateMiB: 8, WSMiB: 2, WSRegions: 4,
		AllocMiB: 2, ComputeMs: 5, WriteFrac: 0.2, Seed: 42,
	}
}

func TestBuildImage(t *testing.T) {
	fn := smallFn()
	img := BuildImage(fn, false)
	if err := img.Validate(); err != nil {
		t.Fatal(err)
	}
	if img.NrPages != fn.MemPages() || img.StatePages != fn.StatePages() {
		t.Fatalf("image geometry wrong: %+v", img)
	}
	// State pages nonzero; free pool stale nonzero.
	if img.PageTags[0] == 0 || img.PageTags[img.NrPages-1] == 0 {
		t.Fatal("expected nonzero tags without zero-on-free")
	}
	if int64(len(img.FreePFNs)) != img.NrPages-img.StatePages {
		t.Fatalf("free pfns = %d", len(img.FreePFNs))
	}
}

func TestBuildImageZeroOnFree(t *testing.T) {
	img := BuildImage(smallFn(), true)
	if img.PageTags[img.StatePages] != 0 {
		t.Fatal("free pool not zeroed with zero-on-free")
	}
	if img.ZeroPages() != img.NrPages-img.StatePages {
		t.Fatalf("ZeroPages = %d", img.ZeroPages())
	}
}

func TestRestoreInvokeLifecycle(t *testing.T) {
	h := NewHost(blockdev.MicronSATA5300())
	fn := smallFn()
	img := BuildImage(fn, false)
	ino := h.RegisterSnapshot("tiny.snapmem", img)
	tr := fn.GenTrace()

	var stats InvokeStats
	h.Eng.Go("vm0", func(p *sim.Proc) {
		vm, err := h.Restore(p, "vm0", fn, img, ino, RestoreConfig{})
		if err != nil {
			t.Error(err)
			return
		}
		vm.MapSnapshotDefault(p)
		vm.MarkPrepared(p)
		stats, err = vm.Invoke(p, tr)
		if err != nil {
			t.Error(err)
		}
	})
	h.Eng.Run()

	sum := tr.Summarize()
	if stats.E2E < h.CM.VMRestoreBase+sum.TotalCompute {
		t.Fatalf("E2E %v below restore+compute floor", stats.E2E)
	}
	if stats.KVM.NestedFaults == 0 {
		t.Fatal("no nested faults recorded")
	}
	// Every unique WS page had to come from the snapshot file.
	if got := ino.ResidentPages(); got < sum.UniquePages {
		t.Fatalf("resident snapshot pages = %d < unique WS %d", got, sum.UniquePages)
	}
}

func TestInvokeTwiceRejected(t *testing.T) {
	h := NewHost(blockdev.MicronSATA5300())
	fn := smallFn()
	img := BuildImage(fn, false)
	ino := h.RegisterSnapshot("s", img)
	tr := &trace.Trace{Ops: []trace.Op{{Kind: trace.OpCompute, Gap: time.Millisecond}}}
	h.Eng.Go("vm0", func(p *sim.Proc) {
		vm, _ := h.Restore(p, "vm0", fn, img, ino, RestoreConfig{})
		vm.MapSnapshotDefault(p)
		if _, err := vm.Invoke(p, tr); err != nil {
			t.Error(err)
		}
		if _, err := vm.Invoke(p, tr); err == nil {
			t.Error("second invoke accepted")
		}
	})
	h.Eng.Run()
}

func TestRestoreGeometryMismatch(t *testing.T) {
	h := NewHost(blockdev.MicronSATA5300())
	fn := smallFn()
	img := BuildImage(fn, false)
	ino := h.RegisterSnapshot("s", img)
	other := fn
	other.MemMiB = 32
	h.Eng.Go("vm0", func(p *sim.Proc) {
		if _, err := h.Restore(p, "vm0", other, img, ino, RestoreConfig{}); err == nil {
			t.Error("mismatched image accepted")
		}
	})
	h.Eng.Run()
}

func TestPVMarkingAvoidsSnapshotIOForAllocs(t *testing.T) {
	fn := smallFn()
	img := BuildImage(fn, false)
	tr := fn.GenTrace()
	run := func(pv bool) (devBytes int64, mirror int64) {
		h := NewHost(blockdev.MicronSATA5300())
		ino := h.RegisterSnapshot("s", img)
		h.Eng.Go("vm0", func(p *sim.Proc) {
			vm, _ := h.Restore(p, "vm0", fn, img, ino, RestoreConfig{PVMarking: pv})
			vm.MapSnapshotDefault(p)
			if _, err := vm.Invoke(p, tr); err != nil {
				t.Error(err)
			}
		})
		h.Eng.Run()
		return h.Dev.Stats().BytesRead, 0
	}
	withPV, _ := run(true)
	withoutPV, _ := run(false)
	if withPV >= withoutPV {
		t.Fatalf("PV marking did not reduce snapshot I/O: %d vs %d", withPV, withoutPV)
	}
}

func TestZeroOnFreeWritesFreedPages(t *testing.T) {
	fn := smallFn()
	img := BuildImage(fn, true)
	tr := fn.GenTrace()
	h := NewHost(blockdev.MicronSATA5300())
	ino := h.RegisterSnapshot("s", img)
	var stats InvokeStats
	h.Eng.Go("vm0", func(p *sim.Proc) {
		vm, err := h.Restore(p, "vm0", fn, img, ino, RestoreConfig{ZeroOnFree: true})
		if err != nil {
			t.Error(err)
			return
		}
		vm.MapSnapshotDefault(p)
		stats, err = vm.Invoke(p, tr)
		if err != nil {
			t.Error(err)
		}
	})
	h.Eng.Run()
	if stats.E2E == 0 {
		t.Fatal("no stats")
	}
}

func TestShutdownReleasesAnon(t *testing.T) {
	h := NewHost(blockdev.MicronSATA5300())
	fn := smallFn()
	img := BuildImage(fn, false)
	ino := h.RegisterSnapshot("s", img)
	tr := fn.GenTrace()
	h.Eng.Go("vm0", func(p *sim.Proc) {
		vm, _ := h.Restore(p, "vm0", fn, img, ino, RestoreConfig{})
		vm.MapSnapshotDefault(p)
		if _, err := vm.Invoke(p, tr); err != nil {
			t.Error(err)
		}
		if vm.AS.AnonPages() == 0 {
			t.Error("expected anon pages from writes/allocs")
		}
		vm.Shutdown()
		if vm.AS.AnonPages() != 0 {
			t.Error("shutdown did not release anon memory")
		}
	})
	h.Eng.Run()
}

func TestDeterministicE2E(t *testing.T) {
	fn := smallFn()
	img := BuildImage(fn, false)
	tr := fn.GenTrace()
	run := func() time.Duration {
		h := NewHost(blockdev.MicronSATA5300())
		ino := h.RegisterSnapshot("s", img)
		var e2e time.Duration
		h.Eng.Go("vm0", func(p *sim.Proc) {
			vm, _ := h.Restore(p, "vm0", fn, img, ino, RestoreConfig{})
			vm.MapSnapshotDefault(p)
			st, err := vm.Invoke(p, tr)
			if err != nil {
				t.Error(err)
			}
			e2e = st.E2E
		})
		h.Eng.Run()
		return e2e
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic E2E: %v vs %v", a, b)
	}
}

// TestInvokeBadTouch checks that a touch outside a live allocation
// fails the invocation with a "bad touch" error instead of landing on
// some other frame.
func TestInvokeBadTouch(t *testing.T) {
	alloc := trace.Op{Kind: trace.OpAlloc, Handle: 1, NPages: 4}
	for _, tc := range []struct {
		name string
		ops  []trace.Op
	}{
		{"offset past end", []trace.Op{alloc, {Kind: trace.OpTouch, Handle: 1, Offset: 4}}},
		{"negative offset", []trace.Op{alloc, {Kind: trace.OpTouch, Handle: 1, Offset: -1}}},
		{"unknown handle", []trace.Op{alloc, {Kind: trace.OpTouch, Handle: 2}}},
		{"freed allocation", []trace.Op{alloc, {Kind: trace.OpFree, Handle: 1}, {Kind: trace.OpTouch, Handle: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHost(blockdev.MicronSATA5300())
			fn := smallFn()
			img := BuildImage(fn, false)
			ino := h.RegisterSnapshot("s", img)
			var err error
			h.Eng.Go("vm0", func(p *sim.Proc) {
				vm, _ := h.Restore(p, "vm0", fn, img, ino, RestoreConfig{PVMarking: true})
				vm.MapSnapshotDefault(p)
				_, err = vm.Invoke(p, &trace.Trace{Ops: tc.ops})
			})
			h.Eng.Run()
			if err == nil || !strings.Contains(err.Error(), "bad touch") {
				t.Fatalf("Invoke error = %v, want a bad touch error", err)
			}
		})
	}
}
