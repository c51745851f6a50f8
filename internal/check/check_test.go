package check

import (
	"strings"
	"testing"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/sim"
	"snapbpf/internal/vmm"
	"snapbpf/internal/workload"
)

// runChecked drives one restore+invoke of the demand-paging baseline
// under a fresh checker and returns the pieces a test needs to poke at.
func runChecked(t *testing.T) (*Checker, *vmm.Host, *vmm.MicroVM, *prefetch.Env) {
	t.Helper()
	fn, err := workload.ByName("json")
	if err != nil {
		t.Fatal(err)
	}
	h := vmm.NewHost(blockdev.MicronSATA5300())
	chk := New(h, nil)
	pf := prefetch.NewLinuxNoRA()
	img := vmm.BuildImage(fn, false)
	ino := h.RegisterSnapshot(fn.Name+".snapmem", img)
	chk.RegisterFileTags(ino, img.PageTags)
	env := &prefetch.Env{
		Host: h, Fn: fn, Image: img, SnapInode: ino,
		RecordTrace: fn.GenTrace(), InvokeTrace: fn.GenTrace(),
		Observers: []prefetch.Observer{chk},
	}
	var vm *vmm.MicroVM
	h.Eng.Go("vm0", func(p *sim.Proc) {
		v, err := h.Restore(p, "vm0", fn, img, ino, pf.RestoreConfig(0))
		if err != nil {
			t.Error(err)
			return
		}
		vm = v
		if err := pf.PrepareVM(p, env, vm); err != nil {
			t.Error(err)
			return
		}
		vm.MarkPrepared(p)
		if _, err := vm.Invoke(p, env.InvokeTrace); err != nil {
			t.Error(err)
			return
		}
		pf.FinishVM(env, vm)
	})
	h.Eng.Run()
	if t.Failed() || vm == nil {
		t.FailNow()
	}
	return chk, h, vm, env
}

// TestCleanRunHasNoViolations is the positive control: a healthy
// demand-paging run armed with the checker finishes clean and yields a
// digest.
func TestCleanRunHasNoViolations(t *testing.T) {
	chk, _, vm, _ := runChecked(t)
	if d := chk.VMDone(vm); d == 0 {
		t.Error("digest is zero")
	}
	vm.Shutdown()
	if err := chk.Finish(); err != nil {
		t.Fatalf("clean run reported violations: %v", err)
	}
}

// TestBrokenDedupCounterCaught corrupts the page cache's rmap counter
// directly — an extra MapPage with no address-space event behind it,
// exactly the kind of accounting bug the dedup cross-check exists for —
// and requires Finish to flag it.
func TestBrokenDedupCounterCaught(t *testing.T) {
	chk, _, vm, env := runChecked(t)
	chk.VMDone(vm)

	// Find a resident snapshot page and give it a phantom rmap ref.
	sabotaged := int64(-1)
	for idx := int64(0); idx < env.SnapInode.NrPages(); idx++ {
		if env.SnapInode.Resident(idx) {
			env.SnapInode.MapPage(idx)
			sabotaged = idx
			break
		}
	}
	if sabotaged < 0 {
		t.Fatal("no resident snapshot page to sabotage")
	}

	vm.Shutdown()
	err := chk.Finish()
	if err == nil {
		t.Fatal("broken dedup counter not caught")
	}
	if !strings.Contains(err.Error(), "rmap-dedup-accounting") {
		t.Fatalf("wrong diagnosis: %v", err)
	}
}

// TestEvolveTagDeterminism pins the oracle's write transition: pure in
// (tag, pfn), never zero, and sensitive to both inputs.
func TestEvolveTagDeterminism(t *testing.T) {
	if evolveTag(42, 7) != evolveTag(42, 7) {
		t.Error("evolveTag is not deterministic")
	}
	if evolveTag(42, 7) == evolveTag(42, 8) || evolveTag(42, 7) == evolveTag(43, 7) {
		t.Error("evolveTag ignores an input")
	}
	for _, tag := range []uint64{0, 1, 0xffffffffffffffff} {
		if evolveTag(tag, 3) == 0 {
			t.Error("evolveTag produced the reserved zero tag")
		}
	}
}

// TestRunCheckedPinned pins the digest and event tally of the
// demand-paging json run, so a change to the shadow state or the
// digest fold that alters a single folded byte or counted event fails.
func TestRunCheckedPinned(t *testing.T) {
	chk, _, vm, _ := runChecked(t)
	if got, want := chk.VMDone(vm), uint64(0x94f1f0a1618b7dd2); got != want {
		t.Errorf("digest = %#x, want %#x", got, want)
	}
	want := Counts{
		IOsSubmitted: 8576, IOsCompleted: 8576, PageInserts: 8576,
		FileMaps: 5659, Faults: 8576, CoWBreaks: 2917,
		GuestAccesses: 9248, Prepares: 1,
	}
	if got := chk.Counts(); got != want {
		t.Errorf("counts:\n got %+v\nwant %+v", got, want)
	}
}
