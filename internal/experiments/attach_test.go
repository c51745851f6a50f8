package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/check"
	"snapbpf/internal/faults"
	"snapbpf/internal/obs"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/sim"
	"snapbpf/internal/store"
	"snapbpf/internal/vmm"
)

// attachOutcome is everything the observers of one cell report.
type attachOutcome struct {
	counts     check.Counts
	violations []check.Violation
	digests    []uint64
	metrics    [][]byte // one metrics JSON per recorder, in attach order
}

// attachCell runs one SnapBPF cell — two sandboxes, light storage
// faults, the snapshot in a cold remote store with one forged chunk
// hash — with its observers attached in the given order: 'c' is the
// checker, 'o' a metrics recorder. Every layer the observers hook
// fires: engine, device, cache, MM, KVM, VM lifecycle, scheme, store.
func attachCell(t *testing.T, order string) attachOutcome {
	t.Helper()
	fn := tinyFn()
	inj := faults.NewInjector(faults.Light(3))
	h := vmm.NewHost(blockdev.MicronSATA5300())
	h.Dev.SetFaults(inj)
	remote := store.NewRemote(store.Params{})
	hc := store.NewHostCache(h.Eng, remote, inj)

	var chk *check.Checker
	var recs []*obs.Recorder
	var schemeObs []prefetch.Observer
	for _, c := range order {
		switch c {
		case 'c':
			chk = check.New(h, inj)
			chk.AttachStore(hc)
			schemeObs = append(schemeObs, chk)
		case 'o':
			rec := obs.Attach(h, obs.Config{Metrics: true})
			hc.AddObserver(rec)
			recs = append(recs, rec)
			schemeObs = append(schemeObs, rec)
		}
	}

	pf := SchemeSnapBPF.New()
	img := vmm.BuildImage(fn, pf.RestoreConfig(0).ZeroOnFree)
	ino := h.RegisterSnapshot(fn.Name+".snapmem", img)
	chk.RegisterFileTags(ino, img.PageTags)
	man := store.BuildManifest(fn.Name, img.PageTags, remote.Params().ChunkPages)
	man.Chunks[0].ID ^= 0xdeadbeef // a stale hash the checker flags on fetch
	bind := hc.Bind(man, store.PolicyFull, img.PageTags)
	ino.SetStager(bind)
	env := &prefetch.Env{
		Host: h, Fn: fn, Image: img, SnapInode: ino,
		RecordTrace: fn.GenTrace(), InvokeTrace: fn.GenTrace(),
		Faults: inj, Observers: schemeObs, ChunkPlan: bind.Plan,
	}

	h.Eng.Go("record", func(p *sim.Proc) {
		if err := pf.Record(p, env); err != nil {
			t.Error(err)
		}
	})
	h.Eng.Run()
	h.Cache.DropCaches()
	h.Dev.ResetStats()
	hc.Drop()

	out := attachOutcome{digests: make([]uint64, 2)}
	vms := make([]*vmm.MicroVM, 2)
	for i := range vms {
		h.Eng.Go(fmt.Sprintf("vm%d", i), func(p *sim.Proc) {
			vm, err := h.Restore(p, fmt.Sprintf("vm%d", i), fn, img, ino, pf.RestoreConfig(0))
			if err != nil {
				t.Error(err)
				return
			}
			vms[i] = vm
			bind.BeginRestore(p)
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
			out.digests[i] = chk.VMDone(vm)
		})
	}
	h.Eng.Run()
	if t.Failed() {
		t.FailNow()
	}
	for _, vm := range vms {
		vm.Shutdown()
	}
	_ = chk.Finish() // the forged chunk makes this fail; Violations has the detail
	out.counts = chk.Counts()
	out.violations = chk.Violations()
	for _, rec := range recs {
		m, err := obs.BuildMetricsJSON([]obs.MetricsCell{{Name: "cell", Report: rec.Finish()}})
		if err != nil {
			t.Fatal(err)
		}
		out.metrics = append(out.metrics, m)
	}
	return out
}

// TestAttachOrderIndependent: the checker and the recorder are peers on
// every layer's observer list, so attaching them in either order — or
// adding a second recorder — gives each one the identical event stream.
func TestAttachOrderIndependent(t *testing.T) {
	base := attachCell(t, "co")
	if base.counts.GuestAccesses == 0 || base.counts.StoreFetches == 0 || base.counts.PrefetchGroups+base.counts.OffsetLoads == 0 {
		t.Fatalf("cell did not exercise the stack: %+v", base.counts)
	}
	found := false
	for _, v := range base.violations {
		found = found || v.Invariant == "store-chunk-digest"
	}
	if !found {
		t.Fatalf("forged chunk hash not flagged: %v", base.violations)
	}
	for _, order := range []string{"oc", "coo"} {
		got := attachCell(t, order)
		if got.counts != base.counts {
			t.Errorf("%s: check counts %+v, want %+v", order, got.counts, base.counts)
		}
		if !reflect.DeepEqual(got.violations, base.violations) {
			t.Errorf("%s: violations %v, want %v", order, got.violations, base.violations)
		}
		if !reflect.DeepEqual(got.digests, base.digests) {
			t.Errorf("%s: guest digests %x, want %x", order, got.digests, base.digests)
		}
		for i, m := range got.metrics {
			if !bytes.Equal(m, base.metrics[0]) {
				t.Errorf("%s: recorder %d metrics JSON differs from the check-first run", order, i)
			}
		}
	}
}
