package vmm

import (
	"strings"
	"testing"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/sim"
	"snapbpf/internal/store"
)

// TestAddObserverRejectsNil: every layer's observer list is nil-free,
// which is what lets each hook site range over it without a guard, so
// attaching nil must panic at the call rather than on the next event.
func TestAddObserverRejectsNil(t *testing.T) {
	h := NewHost(blockdev.MicronSATA5300())
	fn := smallFn()
	img := BuildImage(fn, false)
	ino := h.RegisterSnapshot("tiny.snapmem", img)
	var vm *MicroVM
	h.Eng.Go("vm0", func(p *sim.Proc) {
		v, err := h.Restore(p, "vm0", fn, img, ino, RestoreConfig{})
		if err != nil {
			t.Error(err)
		}
		vm = v
	})
	h.Eng.Run()
	if vm == nil {
		t.FailNow()
	}
	hc := store.NewHostCache(h.Eng, store.NewRemote(store.Params{}), nil)

	for _, tc := range []struct {
		layer string
		add   func()
	}{
		{"sim", func() { h.Eng.AddObserver(nil) }},
		{"blockdev", func() { h.Dev.AddObserver(nil) }},
		{"pagecache", func() { h.Cache.AddObserver(nil) }},
		{"hostmm", func() { h.MM.AddObserver(nil) }},
		{"kvm", func() { vm.KVM.AddObserver(nil) }},
		{"store", func() { hc.AddObserver(nil) }},
		{"vmm", func() { h.AddObserver(nil) }},
		{"vmm-kvm", func() { h.AddKVMObserver(nil) }},
	} {
		t.Run(tc.layer, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("AddObserver(nil) did not panic")
				}
				if msg, _ := r.(string); !strings.Contains(msg, "nil observer") {
					t.Fatalf("panic %v does not name the nil observer", r)
				}
			}()
			tc.add()
		})
	}
}
