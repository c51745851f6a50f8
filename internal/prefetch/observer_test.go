package prefetch

import (
	"testing"

	"snapbpf/internal/pagecache"
	"snapbpf/internal/sim"
	"snapbpf/internal/vmm"
)

// tallyObserver records how often each Observer method fired.
type tallyObserver struct {
	records, artifacts, prepares, degraded, groups, loads int
	pages                                                 int64
}

func (o *tallyObserver) RecordDone(scheme string, wsPages int64) { o.records++ }
func (o *tallyObserver) ArtifactRegistered(ino *pagecache.Inode, tags []uint64) {
	o.artifacts++
}
func (o *tallyObserver) PrepareDone(scheme string, vm *vmm.MicroVM) { o.prepares++ }
func (o *tallyObserver) Degraded(scheme string, vm *vmm.MicroVM, reason string) {
	o.degraded++
}
func (o *tallyObserver) PrefetchIssued(p *sim.Proc, scheme string, vm *vmm.MicroVM, start, npages int64) {
	o.groups++
	o.pages += npages
}
func (o *tallyObserver) OffsetsLoaded(p *sim.Proc, scheme string, vm *vmm.MicroVM, groups int, took sim.Duration) {
	o.loads++
}

// drive fires every Notify helper once.
func drive(env *Env) {
	env.NotifyRecordDone("s", 8)
	env.NotifyArtifact(nil, nil)
	env.NotifyPrepareDone("s", nil)
	env.NotifyDegraded("s", nil, "reason")
	env.NotifyPrefetchIssued(nil, "s", nil, 0, 16)
	env.NotifyOffsetsLoaded(nil, "s", nil, 3, 0)
}

// TestNotifyHelpersNilSafe checks every Notify helper is a no-op
// without an observer — schemes call them unconditionally.
func TestNotifyHelpersNilSafe(t *testing.T) {
	drive(&Env{}) // must not panic
}

// TestNotifyHelpersForward checks every Notify helper forwards to the
// attached observer exactly once with the event's payload.
func TestNotifyHelpersForward(t *testing.T) {
	var o tallyObserver
	drive(&Env{Observers: []Observer{&o}})
	if o.records != 1 || o.artifacts != 1 || o.prepares != 1 || o.degraded != 1 ||
		o.groups != 1 || o.loads != 1 {
		t.Errorf("events delivered unevenly: %+v", o)
	}
	if o.pages != 16 {
		t.Errorf("prefetch pages = %d, want 16", o.pages)
	}
}
