package reap

import (
	"testing"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/faults"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/sim"
	"snapbpf/internal/vmm"
	"snapbpf/internal/workload"
)

func tinyFn() workload.Function {
	return workload.Function{
		Name: "tiny", MemMiB: 64, StateMiB: 32, WSMiB: 8, WSRegions: 10,
		AllocMiB: 4, ComputeMs: 5, WriteFrac: 0.15, Seed: 3,
	}
}

func newEnv(fn workload.Function) *prefetch.Env {
	h := vmm.NewHost(blockdev.MicronSATA5300())
	img := vmm.BuildImage(fn, false)
	return &prefetch.Env{
		Host:        h,
		Fn:          fn,
		Image:       img,
		SnapInode:   h.RegisterSnapshot(fn.Name+".snapmem", img),
		RecordTrace: fn.GenTrace(),
		InvokeTrace: fn.GenTrace(),
	}
}

func record(t *testing.T, r *REAP, env *prefetch.Env) {
	t.Helper()
	var err error
	env.Host.Eng.Go("rec", func(p *sim.Proc) { err = r.Record(p, env) })
	env.Host.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecordCapturesFaultOrder(t *testing.T) {
	fn := tinyFn()
	env := newEnv(fn)
	r := New()
	record(t, r, env)
	ws := r.WorkingSet()
	if ws == nil || len(ws.Pages) == 0 {
		t.Fatal("no working set")
	}
	// REAP has no allocation filtering: the working set must include
	// free-pool pages touched by allocations.
	hasAlloc := false
	for _, pg := range ws.Pages {
		if pg >= fn.StatePages() {
			hasAlloc = true
		}
	}
	if !hasAlloc {
		t.Fatal("REAP working set missing allocation pages")
	}
	// Contents serialized alongside offsets.
	for i, pg := range ws.Pages {
		if ws.Tags[i] != env.Image.PageTags[pg] {
			t.Fatalf("tag mismatch at ws entry %d", i)
		}
	}
	// Record used direct I/O: page cache untouched.
	if env.Host.Cache.NrCachedPages() != 0 {
		t.Fatalf("record polluted page cache: %d pages", env.Host.Cache.NrCachedPages())
	}
}

func TestInvokeInstallsViaUffd(t *testing.T) {
	fn := tinyFn()
	env := newEnv(fn)
	r := New()
	record(t, r, env)

	var stats vmm.InvokeStats
	var err error
	env.Host.Eng.Go("vm", func(p *sim.Proc) {
		vm, rerr := env.Host.Restore(p, "vm0", fn, env.Image, env.SnapInode, r.RestoreConfig(0))
		if rerr != nil {
			err = rerr
			return
		}
		if perr := r.PrepareVM(p, env, vm); perr != nil {
			err = perr
			return
		}
		vm.MarkPrepared(p)
		stats, err = vm.Invoke(p, env.InvokeTrace)
	})
	env.Host.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.E2E <= 0 {
		t.Fatal("no E2E")
	}
	// Everything is uffd-installed anonymous memory: no dedupable
	// page-cache pages for guest memory.
	if env.Host.Cache.NrCachedPages() != 0 {
		t.Fatalf("REAP populated the page cache: %d pages", env.Host.Cache.NrCachedPages())
	}
}

func TestNoDedupAcrossSandboxes(t *testing.T) {
	fn := tinyFn()
	env := newEnv(fn)
	r := New()
	record(t, r, env)

	anon := make([]int64, 2)
	var err error
	for i := 0; i < 2; i++ {
		i := i
		env.Host.Eng.Go("vm", func(p *sim.Proc) {
			vm, rerr := env.Host.Restore(p, "vm", fn, env.Image, env.SnapInode, r.RestoreConfig(0))
			if rerr != nil {
				err = rerr
				return
			}
			if perr := r.PrepareVM(p, env, vm); perr != nil {
				err = perr
				return
			}
			if _, ierr := vm.Invoke(p, env.InvokeTrace); ierr != nil {
				err = ierr
				return
			}
			anon[i] = vm.AS.AnonPages()
		})
	}
	env.Host.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if anon[0] == 0 || anon[1] == 0 {
		t.Fatalf("anon pages = %v", anon)
	}
	// Each sandbox holds its own full copy.
	if anon[0] < r.WorkingSet().TotalPages() {
		t.Fatalf("vm holds %d anon pages, ws is %d", anon[0], r.WorkingSet().TotalPages())
	}
}

func TestPrepareBeforeRecordFails(t *testing.T) {
	fn := tinyFn()
	env := newEnv(fn)
	r := New()
	var err error
	env.Host.Eng.Go("vm", func(p *sim.Proc) {
		vm, _ := env.Host.Restore(p, "vm0", fn, env.Image, env.SnapInode, r.RestoreConfig(0))
		err = r.PrepareVM(p, env, vm)
	})
	env.Host.Eng.Run()
	if err == nil {
		t.Fatal("PrepareVM before Record accepted")
	}
}

func TestCapabilities(t *testing.T) {
	c := New().Capabilities()
	if !c.OnDiskWSSerialization || c.InMemoryWSDedup || c.StatelessAllocFiltering || c.KernelSpace {
		t.Fatalf("capabilities = %+v", c)
	}
}

func TestBufferedModePopulatesCache(t *testing.T) {
	fn := tinyFn()
	env := newEnv(fn)
	r := New()
	r.DirectIO = false
	record(t, r, env)
	// Buffered record faults snapshot pages through the cache.
	if env.Host.Cache.NrCachedPages() == 0 {
		t.Fatal("buffered record did not populate the cache")
	}
}

// TestFaastCorruptArtifactServesFreeFramesZeroed drives the corrupt
// working-set fallback: both configurations demand-page from the
// snapshot, but Faast's free-frame set survives the lost artifact, so
// its allocation faults get zero pages and only working-set pages
// reach the device. REAP reads its allocation pages too.
func TestFaastCorruptArtifactServesFreeFramesZeroed(t *testing.T) {
	fn := tinyFn()
	for _, r := range []*REAP{NewFaast(), New()} {
		env := newEnv(fn)
		record(t, r, env)
		env.Host.Dev.ResetStats()
		inj := faults.NewInjector(faults.Plan{Seed: 1, ArtifactCorruptionRate: 1})
		env.Faults = inj

		var anon int64
		var err error
		env.Host.Eng.Go("vm", func(p *sim.Proc) {
			vm, rerr := env.Host.Restore(p, "vm0", fn, env.Image, env.SnapInode, r.RestoreConfig(0))
			if rerr != nil {
				err = rerr
				return
			}
			if perr := r.PrepareVM(p, env, vm); perr != nil {
				err = perr
				return
			}
			if _, ierr := vm.Invoke(p, env.InvokeTrace); ierr != nil {
				err = ierr
				return
			}
			anon = vm.AS.AnonPages()
		})
		env.Host.Eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := inj.Report().Fallbacks; got != 1 {
			t.Fatalf("%s: fallbacks = %d, want 1", r.Name(), got)
		}
		wsPages := r.WorkingSet().TotalPages()
		st := env.Host.Dev.Stats()
		// Demand paging: one single-page snapshot read per fault, no
		// working-set file read.
		if st.BytesRead != st.Requests*4096 {
			t.Fatalf("%s: %d bytes over %d requests, want single-page reads", r.Name(), st.BytesRead, st.Requests)
		}
		// Every fault not served from the snapshot got a zero page.
		zeroed := anon - st.Requests
		if r.Name() == "Faast" && (zeroed <= 0 || st.Requests != wsPages) {
			t.Fatalf("Faast: %d zero pages, %d snapshot reads for a %d-page working set", zeroed, st.Requests, wsPages)
		}
		if r.Name() == "REAP" && zeroed != 0 {
			t.Fatalf("REAP: %d zero pages without a free-frame set", zeroed)
		}
	}
}
