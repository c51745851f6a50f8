// Package prefetch defines the snapshot-prefetching interface shared
// by SnapBPF and the state-of-the-art baselines the paper compares
// against (REAP, Faast, FaaSnap, vanilla Linux demand paging), plus
// the two Linux baselines themselves.
//
// A Prefetcher participates in the two phases of §2.1:
//
//   - Record: one instrumented invocation that captures the function's
//     working set and persists whatever artifact the scheme needs
//     (offsets for SnapBPF, page data for the others).
//   - Invocation: for each new sandbox, PrepareVM installs the
//     sandbox's guest-memory backend (mmap, userfaultfd, overlays,
//     eBPF programs) and kicks off prefetching; the harness then
//     replays the function trace.
package prefetch

import (
	"snapbpf/internal/faults"
	"snapbpf/internal/pagecache"
	"snapbpf/internal/sim"
	"snapbpf/internal/snapshot"
	"snapbpf/internal/trace"
	"snapbpf/internal/vmm"
	"snapbpf/internal/workload"
)

// Capabilities is a row of the paper's Table 1 feature matrix.
type Capabilities struct {
	// Mechanism names the capture/prefetch mechanism as in Table 1.
	Mechanism string
	// KernelSpace is true when capture and prefetch run in the kernel.
	KernelSpace bool
	// OnDiskWSSerialization is true when the working set's page
	// contents are serialized to a separate file on disk.
	OnDiskWSSerialization bool
	// InMemoryWSDedup is true when concurrent sandboxes share one
	// in-memory copy of the working set.
	InMemoryWSDedup bool
	// StatelessAllocFiltering is true when VM-sandbox memory
	// allocations are filtered without snapshot scanning or
	// pre-processing.
	StatelessAllocFiltering bool
	// NeedsSnapshotScan is true when the scheme pre-scans or
	// pre-processes the snapshot (zero pages, allocator metadata).
	NeedsSnapshotScan bool
}

// Env is the per-function experiment context.
type Env struct {
	Host      *vmm.Host
	Fn        workload.Function
	Image     *snapshot.MemoryImage
	SnapInode *pagecache.Inode

	// RecordTrace drives the record invocation; InvokeTrace drives
	// the measured invocations (identical inputs across concurrent
	// sandboxes, as in the paper's methodology).
	RecordTrace *trace.Trace
	InvokeTrace *trace.Trace

	// Faults is the run's fault injector (nil when healthy). Schemes
	// consult it in PrepareVM for scheme-level failures — corrupt
	// working-set artifacts, eBPF map-load failures — and degrade to
	// demand paging instead of failing the invocation.
	Faults *faults.Injector

	// Observers receive scheme-level events, in order: the
	// correctness harness (internal/check) and the observability layer
	// (internal/obs) attach here side by side. Schemes report through
	// the Notify* helpers below.
	Observers []Observer

	// ChunkPlan, when non-nil, receives the captured working-set page
	// order once a scheme has it — the snapshot distribution tier
	// (internal/store) turns it into a chunk-priority fetch plan under
	// the WS-guided lazy-pull policy. Schemes without offset metadata
	// never call it and degrade to demand fetching naturally.
	ChunkPlan func(p *sim.Proc, pages []int64)
}

// NotifyChunkPlan hands the working-set page order (first-access
// sorted) to the distribution tier.
func (env *Env) NotifyChunkPlan(p *sim.Proc, pages []int64) {
	if env.ChunkPlan != nil {
		env.ChunkPlan(p, pages)
	}
}

// Observer receives scheme-level events for the correctness harness
// and the observability layer. Observers must not mutate scheme or VM
// state.
type Observer interface {
	// RecordDone fires when a scheme's record phase completes; wsPages
	// is the captured working-set size (0 for schemes without one).
	RecordDone(scheme string, wsPages int64)
	// ArtifactRegistered declares the page contents of a scheme's
	// on-disk working-set artifact: tags[i] is the content tag of file
	// page i of ino. Fired before any sandbox reads or maps the file.
	ArtifactRegistered(ino *pagecache.Inode, tags []uint64)
	// PrepareDone fires when PrepareVM completes for one sandbox.
	PrepareDone(scheme string, vm *vmm.MicroVM)
	// Degraded fires each time a scheme falls back to demand paging
	// after an injected scheme-level fault (corrupt artifact, eBPF
	// map-load failure). The harness balances these against the
	// injector's fallback counters.
	Degraded(scheme string, vm *vmm.MicroVM, reason string)
	// PrefetchIssued fires once per prefetch group a scheme issues
	// for a sandbox: one working-set chunk read for REAP/Faast, one
	// coalesced range for FaaSnap. SnapBPF's kernel-side groups are
	// observed through pagecache.Observer.ReadaheadIssued instead. p
	// is the issuing process (the scheme's prefetch thread).
	PrefetchIssued(p *sim.Proc, scheme string, vm *vmm.MicroVM, start, npages int64)
	// OffsetsLoaded fires when SnapBPF finishes loading a sandbox's
	// offset schedule into its eBPF maps — the §3.1 "WS load" phase —
	// with the group count and the virtual time the load took.
	OffsetsLoaded(p *sim.Proc, scheme string, vm *vmm.MicroVM, groups int, took sim.Duration)
}

// NotifyRecordDone reports a completed record phase.
func (env *Env) NotifyRecordDone(scheme string, wsPages int64) {
	for _, o := range env.Observers {
		o.RecordDone(scheme, wsPages)
	}
}

// NotifyArtifact declares a working-set artifact's contents.
func (env *Env) NotifyArtifact(ino *pagecache.Inode, tags []uint64) {
	for _, o := range env.Observers {
		o.ArtifactRegistered(ino, tags)
	}
}

// NotifyPrepareDone reports a completed PrepareVM.
func (env *Env) NotifyPrepareDone(scheme string, vm *vmm.MicroVM) {
	for _, o := range env.Observers {
		o.PrepareDone(scheme, vm)
	}
}

// NotifyDegraded reports a demand-paging fallback.
func (env *Env) NotifyDegraded(scheme string, vm *vmm.MicroVM, reason string) {
	for _, o := range env.Observers {
		o.Degraded(scheme, vm, reason)
	}
}

// NotifyPrefetchIssued reports one issued prefetch group.
func (env *Env) NotifyPrefetchIssued(p *sim.Proc, scheme string, vm *vmm.MicroVM, start, npages int64) {
	for _, o := range env.Observers {
		o.PrefetchIssued(p, scheme, vm, start, npages)
	}
}

// NotifyOffsetsLoaded reports a completed offset-schedule load.
func (env *Env) NotifyOffsetsLoaded(p *sim.Proc, scheme string, vm *vmm.MicroVM, groups int, took sim.Duration) {
	for _, o := range env.Observers {
		o.OffsetsLoaded(p, scheme, vm, groups, took)
	}
}

// Prefetcher is one snapshot-prefetching scheme.
type Prefetcher interface {
	// Name is the scheme's display name ("SnapBPF", "REAP", ...).
	Name() string

	// Capabilities reports the Table 1 feature matrix row.
	Capabilities() Capabilities

	// RestoreConfig returns the guest patches and KVM knobs the
	// scheme requires for an invocation-phase sandbox. salt perturbs
	// the guest allocator per sandbox.
	RestoreConfig(salt int) vmm.RestoreConfig

	// Record captures the function working set (§2.1 record phase).
	// Schemes without a record phase return nil immediately.
	Record(p *sim.Proc, env *Env) error

	// PrepareVM installs the sandbox's memory backend and starts
	// prefetching. Called after vmm.Host.Restore, before Invoke.
	PrepareVM(p *sim.Proc, env *Env, vm *vmm.MicroVM) error

	// FinishVM releases per-sandbox resources after the invocation.
	FinishVM(env *Env, vm *vmm.MicroVM)
}
