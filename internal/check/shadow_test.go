package check

import (
	"testing"

	"snapbpf/internal/hostmm"
	"snapbpf/internal/vmm"
)

// TestFinishDiagnosticsDeterministic gives a finished run more dedup
// violations than the checker records and requires every rerun to
// report the same ones, lowest page first.
func TestFinishDiagnosticsDeterministic(t *testing.T) {
	var first string
	for run := 0; run < 5; run++ {
		chk, _, vm, env := runChecked(t)
		chk.VMDone(vm)
		sabotaged := 0
		for idx := int64(0); idx < env.SnapInode.NrPages() && sabotaged < 2*maxViolations; idx++ {
			if env.SnapInode.Resident(idx) {
				env.SnapInode.MapPage(idx)
				sabotaged++
			}
		}
		if sabotaged <= maxViolations {
			t.Fatalf("only %d resident snapshot pages to sabotage", sabotaged)
		}
		vm.Shutdown()
		err := chk.Finish()
		if err == nil {
			t.Fatal("broken dedup counters not caught")
		}
		if e := err.(*Error); e.Dropped == 0 {
			t.Fatalf("%d violations recorded, none dropped", len(e.Violations))
		}
		if run == 0 {
			first = err.Error()
			continue
		}
		if got := err.Error(); got != first {
			t.Fatalf("run %d reports\n%s\nrun 0 reported\n%s", run, got, first)
		}
	}
}

// TestShadowHotPathAllocs requires the per-event paths to allocate
// nothing once the touched chunks, rmap slices and access stack exist.
func TestShadowHotPathAllocs(t *testing.T) {
	f := newFixture(256, 128, 8)
	allocs := map[string]float64{}
	f.run(func(f *fixture) {
		f.c.AnonInstalled(f.as, 20, 7, true) // written below
		allocs["map+unmap"] = testing.AllocsPerRun(100, func() {
			f.c.FilePageMapped(f.as, 10, f.ino, 3)
			f.c.FilePageUnmapped(f.as, 10, f.ino, 3)
		})
		allocs["access write"] = testing.AllocsPerRun(100, func() {
			f.c.AccessBegin(f.p, f.vm, 20, true)
			f.c.AccessEnd(f.p, f.vm, 20, true, false)
		})
		allocs["anon install+drop"] = testing.AllocsPerRun(100, func() {
			f.c.AnonInstalled(f.as, 30, 7, true)
			f.c.AnonDropped(f.as, 30)
		})
	})
	if got := f.violations(); len(got) != 0 {
		t.Fatalf("violations: %q", got)
	}
	for name, n := range allocs {
		if n != 0 {
			t.Errorf("%s: %v allocations per run, want 0", name, n)
		}
	}
}

var sinkDigest uint64

// BenchmarkCheckerFaultPath is the checker's share of one demand
// fault: the file PTE is mapped, the fault resolves, the guest access
// that caused it completes, and the PTE is unmapped again, cycling
// over 4096 pages of a 4096-page cached file.
func BenchmarkCheckerFaultPath(b *testing.B) {
	const pages = 4096
	f := newFixture(pages, pages, pages)
	cycle := func(pg int64) {
		f.c.FilePageMapped(f.as, pg, f.ino, pg)
		f.c.FaultResolved(f.p, f.as, pg, false, hostmm.FaultFile)
		f.c.AccessBegin(f.p, f.vm, pg, false)
		f.c.AccessEnd(f.p, f.vm, pg, false, false)
		f.c.FilePageUnmapped(f.as, pg, f.ino, pg)
	}
	for pg := int64(0); pg < pages; pg++ {
		cycle(pg) // the first touch allocates the shadow
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(int64(i % pages))
	}
	b.StopTimer()
	if got := f.violations(); len(got) != 0 {
		b.Fatalf("violations: %q", got)
	}
}

// BenchmarkVMDone digests a sandbox with 30,000 state frames, of which
// every third is untouched, file-mapped or a CoW copy.
func BenchmarkVMDone(b *testing.B) {
	const state = 30000
	f := newFixture(state, state, state)
	f.run(func(f *fixture) {
		for pg := int64(1); pg < state; pg += 3 {
			f.as.HandleFault(f.p, pg, false)
			f.c.AccessBegin(f.p, f.vm, pg+1, true)
			f.as.HandleFault(f.p, pg+1, true)
			f.c.AccessEnd(f.p, f.vm, pg+1, true, false)
		}
	})
	img := f.microVM().Image
	img.NrPages, img.StatePages = state, state
	img.PageTags = make([]uint64, state)
	vm := &vmm.MicroVM{Name: "vm", Image: img, AS: f.as, KVM: f.vm}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDigest = f.c.VMDone(vm)
	}
	b.StopTimer()
	if got := f.violations(); len(got) != 0 {
		b.Fatalf("violations: %q", got)
	}
}
