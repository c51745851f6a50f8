// Package testbed is the cold-start protocol every harness shares —
// the method REAP introduced and the paper follows: record once on a
// host, drop the caches, then measure restores on the same stack. Build
// each function once with NewFunc, Arm each host, Stage every function
// on it, Record, then run each sandbox with ColdStart. The single-host
// runners (experiments.Run, RunWaves, RunMixed) and the region
// simulator (cluster.Run) keep only their own scheduling on top.
//
// A function's snapshot memory file and trace belong to the function,
// not to a host: a Func (trace, image, the checkers' reference tags)
// is built once per run and every host stages that one copy. What a
// host owns is built by Stage: the scheme instance, the snapshot inode
// and its checker registration, the chunk manifest and binding, and
// the scheme's Env.
//
// The package owns the orderings each caller used to get right by
// hand: arm before the first simulated event, declare the snapshot's
// contents to the checker as soon as its file exists, gate a restore
// on the chunk binding before PrepareVM, and take the checker's digest
// before the sandbox is shut down.
package testbed

import (
	"fmt"
	"slices"

	"snapbpf/internal/check"
	"snapbpf/internal/faults"
	"snapbpf/internal/obs"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/sim"
	"snapbpf/internal/snapshot"
	"snapbpf/internal/store"
	"snapbpf/internal/trace"
	"snapbpf/internal/vmm"
	"snapbpf/internal/workload"
)

// Arming says what to attach to a host.
type Arming struct {
	// Faults, when non-nil and enabled, seeds the host's fault
	// injector. Nil or a disabled plan leaves the host healthy.
	Faults *faults.Plan

	// Check attaches an invariant checker.
	Check bool

	// Obs, when enabled, attaches an observability recorder.
	Obs *obs.Config

	// Store, when non-nil with a non-local tier, serves snapshots
	// through a host chunk cache pulling from Remote, or from a fresh
	// remote built from Store.Params when Remote is nil; a region
	// passes every host its first host's remote. Store's manifest
	// knobs apply to every function staged on the host.
	Store  *store.Setup
	Remote *store.Remote
}

// Host is a vmm.Host armed for one run.
type Host struct {
	*vmm.Host

	// Name prefixes the host's snapshot files and procs ("host0/…");
	// it is empty on a single-host run.
	Name string

	Inj    *faults.Injector // nil when healthy
	Chk    *check.Checker   // nil unless Arming.Check
	Rec    *obs.Recorder    // nil unless Arming.Obs is enabled
	Chunks *store.HostCache // nil when snapshots are on local SSD
	Remote *store.Remote    // the backend Chunks pulls from

	setup     *store.Setup
	observers []prefetch.Observer
	staged    []*Fn
}

// Arm attaches what a asks for to h. Call it before h's first
// simulated event, so every observer sees the run from its start.
func Arm(h *vmm.Host, name string, a Arming) *Host {
	t := &Host{Host: h, Name: name}
	if a.Faults != nil && a.Faults.Enabled() {
		t.Inj = faults.NewInjector(*a.Faults)
	}
	h.Dev.SetFaults(t.Inj)
	if a.Check {
		t.Chk = check.New(h, t.Inj)
		t.observers = append(t.observers, t.Chk)
	}
	if a.Obs.Enabled() {
		t.Rec = obs.Attach(h, *a.Obs)
		t.observers = append(t.observers, t.Rec)
	}
	if a.Store != nil && a.Store.Tier != store.TierLocal {
		t.setup, t.Remote = a.Store, a.Remote
		if t.Remote == nil {
			t.Remote = store.NewRemote(a.Store.Params)
		}
		t.Chunks = store.NewHostCache(h.Eng, t.Remote, t.Inj)
		if t.Chk != nil {
			t.Chk.AttachStore(t.Chunks)
		}
		if t.Rec != nil {
			t.Chunks.AddObserver(t.Rec)
		}
	}
	return t
}

// label prefixes s with the host name, if any.
func (h *Host) label(s string) string {
	if h.Name == "" {
		return s
	}
	return h.Name + "/" + s
}

// Scheme is a named prefetcher factory. Every staged function gets
// its own instance, because prefetchers hold per-function artifacts.
type Scheme struct {
	Name string
	New  func() prefetch.Prefetcher
}

// Func is the host-independent half of staging one function: its
// generated trace, its snapshot image for the scheme, and a private
// copy of the image's page tags that checkers keep as their reference.
// Build it once per run and Stage it on every host of the run; the
// hosts share it read-only. Traces are read-only once generated, and
// only vmm.BuildImage writes an image, so no host can see another's
// run through it.
type Func struct {
	Fn    workload.Function
	Trace *trace.Trace
	Image *snapshot.MemoryImage

	// scheme builds each host's instance; the image is built for it.
	scheme Scheme
	// tags is a copy of Image.PageTags that no scheme sees: what the
	// checker reads as the file's contents cannot change with the code
	// under test.
	tags []uint64
}

// NewFunc generates fn's trace and builds its snapshot image for
// scheme. The record and measured invocations share the trace: both
// runs take identical inputs.
func NewFunc(fn workload.Function, scheme Scheme) *Func {
	img := vmm.BuildImage(fn, scheme.New().RestoreConfig(0).ZeroOnFree)
	return &Func{Fn: fn, Trace: fn.GenTrace(), Image: img, scheme: scheme,
		tags: slices.Clone(img.PageTags)}
}

// Fn is one function staged on a host: its scheme instance, the
// scheme's view of the host, and the snapshot's chunk binding (nil on
// local SSD).
type Fn struct {
	PF   prefetch.Prefetcher
	Env  *prefetch.Env
	Bind *store.Binding
}

// Stage builds a fresh instance of f's scheme for this host, registers
// f's image as a snapshot file on h, declares its contents to the
// checker and builds the scheme's Env. With a chunk cache, the
// snapshot's manifest is built and bound to it; the manifest is the
// host's own, because the sabotage and permutation knobs edit it.
// Functions record and preload in staging order.
func (h *Host) Stage(f *Func) *Fn {
	inode := h.RegisterSnapshot(h.label(f.Fn.Name+".snapmem"), f.Image)
	if h.Chk != nil {
		h.Chk.RegisterFileTags(inode, f.tags)
	}
	sf := &Fn{PF: f.scheme.New(), Env: &prefetch.Env{
		Host:        h.Host,
		Fn:          f.Fn,
		Image:       f.Image,
		SnapInode:   inode,
		RecordTrace: f.Trace,
		InvokeTrace: f.Trace,
		Faults:      h.Inj,
		Observers:   h.observers,
	}}
	if h.Chunks != nil {
		// The snapshot's chunks live in the remote store: device reads
		// of its inode are staged behind the chunk cache, and a
		// scheme's captured offsets feed the chunk-priority plan.
		man := store.BuildManifest(f.Fn.Name, f.Image.PageTags, h.Remote.Params().ChunkPages)
		if k := h.setup.SabotageChunk; k > 0 && k <= len(man.Chunks) {
			// Test knob: forge one manifest hash (stale manifest /
			// corrupt chunk); the checker must flag the fetch.
			man.Chunks[k-1].ID ^= 0xdeadbeef
		}
		if h.setup.PermuteChunks != 0 {
			store.PermuteChunks(man, h.setup.PermuteChunks)
		}
		sf.Bind = h.Chunks.Bind(man, h.setup.Policy, f.Image.PageTags)
		inode.SetStager(sf.Bind)
		sf.Env.ChunkPlan = sf.Bind.Plan
	}
	h.staged = append(h.staged, sf)
	return sf
}

// Record runs the record phase of every function staged on hosts,
// host by host in staging order, in one proc on the engine the hosts
// share, and stops at the first failure. Then it starts the measured
// phase: page caches dropped, device counters reset and the page-cache
// limit applied (0 means unlimited). A cold chunk cache starts empty,
// as on a host that never ran the functions; a warm one is preloaded
// through the normal fetch path, one proc per host, before Record
// returns.
func Record(limitPages int64, hosts ...*Host) error {
	var err error
	hosts[0].Eng.Go("record", func(p *sim.Proc) {
		for _, h := range hosts {
			for _, f := range h.staged {
				if e := f.PF.Record(p, f.Env); e != nil {
					err = fmt.Errorf("record %s: %w", h.label(f.Env.Fn.Name), e)
					return
				}
			}
		}
	})
	hosts[0].Eng.Run()
	if err != nil {
		return err
	}
	for _, h := range hosts {
		h.Cache.DropCaches()
		h.Dev.ResetStats()
		h.Cache.SetMemLimit(limitPages)
	}
	preload := false
	for _, h := range hosts {
		if h.Chunks == nil {
			continue
		}
		switch h.setup.Tier {
		case store.TierCold:
			h.Chunks.Drop()
		case store.TierWarm:
			h := h
			h.Eng.Go(h.label("store-preload"), func(p *sim.Proc) {
				for _, f := range h.staged {
					f.Bind.Preload(p)
				}
			})
			preload = true
		}
	}
	if preload {
		hosts[0].Eng.Run()
	}
	return nil
}

// Sandbox is one completed cold start.
type Sandbox struct {
	// VM is still running; its owner shuts it down.
	VM    *vmm.MicroVM
	Stats vmm.InvokeStats
	// Digest is the checker's fold of the guest-visible state pages,
	// zero when no checker is armed.
	Digest uint64
}

// ColdStart restores sandbox name from f's snapshot with the
// scheme's restore config for allocator salt, prepares it, invokes tr
// and finishes the scheme's per-VM work.
func (h *Host) ColdStart(p *sim.Proc, f *Fn, name string, salt int, tr *trace.Trace) (Sandbox, error) {
	env := f.Env
	vm, err := h.Restore(p, name, env.Fn, env.Image, env.SnapInode, f.PF.RestoreConfig(salt))
	if err != nil {
		return Sandbox{}, err
	}
	if f.Bind != nil {
		// The full-download policy blocks restores until the whole
		// snapshot is local; other policies return at once. The wait
		// lands in E2E, like a real registry pull.
		f.Bind.BeginRestore(p)
	}
	if err := f.PF.PrepareVM(p, env, vm); err != nil {
		return Sandbox{}, err
	}
	vm.MarkPrepared(p)
	st, err := vm.Invoke(p, tr)
	if err != nil {
		return Sandbox{}, err
	}
	f.PF.FinishVM(env, vm)
	sb := Sandbox{VM: vm, Stats: st}
	if h.Chk != nil {
		// Digest before Shutdown: the shadow page table is consumed
		// with the address space.
		sb.Digest = h.Chk.VMDone(vm)
	}
	return sb, nil
}

// Finish closes the run on h once its sandboxes are shut down. It
// returns the recorder's report and the checker's tally, each nil
// when not armed, and the checker's end-of-run verdict.
func (h *Host) Finish() (*obs.Report, *check.Counts, error) {
	var rep *obs.Report
	if h.Rec != nil {
		rep = h.Rec.Finish()
	}
	if h.Chk == nil {
		return rep, nil, nil
	}
	cc := h.Chk.Counts()
	return rep, &cc, h.Chk.Finish()
}
