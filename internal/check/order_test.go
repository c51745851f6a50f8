package check_test

import (
	"errors"
	"strings"
	"testing"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/core"
	"snapbpf/internal/pagecache"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/sim"
	"snapbpf/internal/testbed"
	"snapbpf/internal/vmm"
	"snapbpf/internal/workload"
)

// kprobeFirst is a page-cache observer that, once armed, fires the
// insertion kprobe from inside its own PageInserted. Added ahead of
// the checker, it runs an attached program before the checker has
// seen the insertion: the order pagecache must never use, since the
// prefetch program inserts further pages from that kprobe.
type kprobeFirst struct {
	h     *vmm.Host
	armed bool
}

func (k *kprobeFirst) PageInserted(ino *pagecache.Inode, idx int64, _ bool) {
	if k.armed {
		k.h.Probes.Fire(pagecache.HookAddToPageCacheLRU, ino.ID(), uint64(idx))
	}
}
func (*kprobeFirst) PageEvicted(*pagecache.Inode, int64)                   {}
func (*kprobeFirst) PageRemoved(*pagecache.Inode, int64)                   {}
func (*kprobeFirst) ReadaheadIssued(*pagecache.Inode, int64, int64, int64) {}

// TestKprobeBeforeObserverCaught is the run-time proof of the causal
// order in pagecache's insert: observers see a page before the kprobe
// dispatch that can insert more. Two SnapBPF cold starts of json with
// the kprobe fired first must fail the checker's cache-count
// accounting; the unarmed control must finish clean.
func TestKprobeBeforeObserverCaught(t *testing.T) {
	fn, err := workload.ByName("json")
	if err != nil {
		t.Fatal(err)
	}
	snapbpf := testbed.Scheme{Name: "SnapBPF", New: func() prefetch.Prefetcher { return core.New() }}
	for _, armed := range []bool{false, true} {
		vh := vmm.NewHost(blockdev.MicronSATA5300())
		sab := &kprobeFirst{h: vh}
		vh.Cache.AddObserver(sab)
		h := testbed.Arm(vh, "", testbed.Arming{Check: true})
		f := h.Stage(testbed.NewFunc(fn, snapbpf))
		if err := testbed.Record(0, h); err != nil {
			t.Fatal(err)
		}
		sab.armed = armed
		sbs := make([]testbed.Sandbox, 2)
		errs := make([]error, len(sbs))
		for i := range sbs {
			i := i
			h.Eng.Go("vm", func(p *sim.Proc) {
				sbs[i], errs[i] = h.ColdStart(p, f, "vm", i, f.Env.InvokeTrace)
			})
		}
		h.Eng.Run()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		for _, sb := range sbs {
			sb.VM.Shutdown()
		}
		_, _, err := h.Finish()
		switch {
		case !armed && err != nil:
			t.Fatalf("unarmed control: %v", err)
		case armed && (err == nil || !strings.Contains(err.Error(), "cache-count-accounting")):
			t.Fatalf("kprobe fired before the checker observed the insert: err = %v, want cache-count-accounting", err)
		}
	}
}
