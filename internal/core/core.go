// Package core implements SnapBPF, the paper's contribution: an
// eBPF-based kernel-space mechanism that captures and prefetches the
// working sets of VM-sandboxed serverless functions through the OS
// page cache (§3.1), combined with a lightweight paravirtualized PTE
// marking interface that serves guest memory allocations with
// anonymous memory online, without snapshot scanning (§3.2).
//
// Unlike the userspace baselines, SnapBPF
//
//   - serializes only page *offsets* (an OffsetsWS), never page
//     contents: prefetch reads come straight from the snapshot file;
//   - deduplicates working sets across concurrent sandboxes through
//     shared page-cache pages;
//   - needs no snapshot scanning or pre-processing for allocation
//     filtering.
package core

import (
	"fmt"
	"sort"
	"time"

	"snapbpf/internal/ebpf"
	"snapbpf/internal/kprobe"
	"snapbpf/internal/pagecache"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/sim"
	"snapbpf/internal/snapshot"
	"snapbpf/internal/vmm"
)

// SnapBPF is the prefetcher. The two mechanisms can be toggled
// independently for the paper's Figure 4 breakdown.
type SnapBPF struct {
	// EnablePrefetch turns on the eBPF capture/prefetch mechanism.
	EnablePrefetch bool
	// EnablePV turns on the guest PV PTE-marking patch.
	EnablePV bool
	// UnpatchedKVM reverts the KVM CoW patch (ablation; §4 Memory).
	UnpatchedKVM bool
	// DisableGrouping issues one group per page instead of contiguous
	// ranges (ablation; §3.1 "we do minimize the number of block
	// requests ... by grouping the pages into contiguous ranges").
	DisableGrouping bool
	// OffsetOrder sorts groups by file offset instead of earliest
	// access time (ablation; §3.1 sorted group order).
	OffsetOrder bool

	// ScheduleOverride, when non-nil, rewrites the captured prefetch
	// schedule once at the end of Record, before validation. The
	// counterfactual-replay harness (internal/calib) uses it to rerun
	// a cell under an alternative group ordering; it never runs on the
	// fault hot path.
	ScheduleOverride func([]snapshot.Group) []snapshot.Group

	nameOverride string

	ws *snapshot.OffsetsWS

	// OffsetLoads records, per PrepareVM call, the time spent loading
	// the offset schedule into the kernel via eBPF map updates — the
	// overhead the paper measures at ~1–2ms, <1% of E2E (§4).
	OffsetLoads []time.Duration

	// CaptureProgRuns counts capture-program executions during Record,
	// and PrefetchProgRuns counts prefetch-program executions across
	// all sandboxes — inputs to the cost-analysis extension (the
	// "comprehensive analysis of the computational and memory costs"
	// the paper leaves to future work, §4).
	CaptureProgRuns  int64
	PrefetchProgRuns int64

	attachments map[*vmm.MicroVM]*kprobe.Attachment
	progs       map[*vmm.MicroVM]*ebpf.Program
}

// defaultPrefetchBatch bounds the groups issued per prefetch-program
// firing: ~35 interpreted instructions per group keeps a full batch
// well inside the 1M-instruction budget, and the program resumes from
// its cursor on later firings.
const defaultPrefetchBatch = 16384

// New returns SnapBPF with both mechanisms enabled, as evaluated in
// Figure 3.
func New() *SnapBPF {
	return &SnapBPF{EnablePrefetch: true, EnablePV: true,
		attachments: make(map[*vmm.MicroVM]*kprobe.Attachment),
		progs:       make(map[*vmm.MicroVM]*ebpf.Program)}
}

// NewPVOnly returns the PV-PTE-marking-only configuration (the pink
// bars of Figure 4).
func NewPVOnly() *SnapBPF {
	s := New()
	s.EnablePrefetch = false
	s.nameOverride = "PVPTEs"
	return s
}

// Name implements prefetch.Prefetcher.
func (s *SnapBPF) Name() string {
	if s.nameOverride != "" {
		return s.nameOverride
	}
	return "SnapBPF"
}

// SetName overrides the display name (ablation variants).
func (s *SnapBPF) SetName(n string) { s.nameOverride = n }

// Capabilities implements prefetch.Prefetcher (Table 1 row).
func (s *SnapBPF) Capabilities() prefetch.Capabilities {
	return prefetch.Capabilities{
		Mechanism:               "eBPF (Kernel-space)",
		KernelSpace:             true,
		OnDiskWSSerialization:   false,
		InMemoryWSDedup:         true,
		StatelessAllocFiltering: s.EnablePV,
	}
}

// RestoreConfig implements prefetch.Prefetcher.
func (s *SnapBPF) RestoreConfig(salt int) vmm.RestoreConfig {
	return vmm.RestoreConfig{
		PVMarking:         s.EnablePV,
		ForceWriteMapping: s.UnpatchedKVM,
		AllocSalt:         salt,
	}
}

// WorkingSet exposes the captured offsets artifact.
func (s *SnapBPF) WorkingSet() *snapshot.OffsetsWS { return s.ws }

// Record implements prefetch.Prefetcher: the capture phase of §3.1.
// The VMM creates the add_to_page_cache_lru kprobe, attaches the
// capture eBPF program, disables readahead on the snapshot inode, and
// invokes the function once; afterwards it reads the captured offsets
// from the eBPF map, groups them into contiguous ranges, sorts the
// groups by earliest access, and stores only this metadata.
func (s *SnapBPF) Record(p *sim.Proc, env *prefetch.Env) (err error) {
	if !s.EnablePrefetch {
		return nil // PV-only configuration has no record phase
	}
	h := env.Host
	EnsureKfunc(h)

	conf := ebpf.MustNewMap(ebpf.MapTypeArray, "snapbpf_capture_conf", 2)
	wsMap := ebpf.MustNewMap(ebpf.MapTypeHash, "snapbpf_ws", int(env.Image.NrPages))
	confFD := h.BPF.RegisterMap(conf)
	wsFD := h.BPF.RegisterMap(wsMap)
	if err := conf.Update(0, env.SnapInode.ID()); err != nil {
		return err
	}
	if err := conf.Update(1, 0); err != nil {
		return err
	}
	prog, err := h.BPF.Load("snapbpf-capture", buildCaptureProgram(confFD, wsFD))
	if err != nil {
		return err
	}
	att, err := h.Probes.Attach(pagecache.HookAddToPageCacheLRU, prog)
	if err != nil {
		return err
	}
	defer func() {
		if derr := h.Probes.Detach(att); derr != nil && err == nil {
			err = derr
		}
	}()

	env.SnapInode.SetReadahead(0) // §3.1: disable readahead in capture
	defer env.SnapInode.SetReadahead(-1)

	vm, err := h.Restore(p, env.Fn.Name+"-snapbpf-record", env.Fn, env.Image, env.SnapInode,
		vmm.RestoreConfig{PVMarking: s.EnablePV, AllocSalt: 0})
	if err != nil {
		return err
	}
	vm.MapSnapshotDefault(p)
	vm.MarkPrepared(p)
	if _, err = vm.Invoke(p, env.RecordTrace); err != nil {
		return err
	}
	vm.Shutdown()
	s.CaptureProgRuns += prog.Runs()

	s.ws = buildSchedule(wsMap.Entries(), s.DisableGrouping, s.OffsetOrder)
	if s.ScheduleOverride != nil {
		s.ws = &snapshot.OffsetsWS{Groups: s.ScheduleOverride(s.ws.Groups)}
	}
	if err := s.ws.Validate(env.Image.NrPages); err != nil {
		return fmt.Errorf("snapbpf: captured invalid working set: %w", err)
	}
	env.NotifyRecordDone(s.Name(), s.ws.TotalPages())
	return nil
}

// buildSchedule turns captured (page -> access seq) map entries into
// the prefetch schedule: contiguous ranges ordered by the earliest
// access time of any page in the range.
func buildSchedule(entries []ebpf.Entry, perPage, offsetOrder bool) *snapshot.OffsetsWS {
	if len(entries) == 0 {
		return &snapshot.OffsetsWS{}
	}
	type rec struct{ page, seq int64 }
	recs := make([]rec, len(entries))
	for i, e := range entries {
		recs[i] = rec{int64(e.Key), int64(e.Value)}
	}
	// Entries arrive sorted by page; group contiguous runs and track
	// each run's earliest access sequence.
	type grp struct {
		g      snapshot.Group
		minSeq int64
	}
	var groups []grp
	for _, r := range recs {
		if perPage {
			groups = append(groups, grp{snapshot.Group{Start: r.page, NPages: 1}, r.seq})
			continue
		}
		if n := len(groups); n > 0 && groups[n-1].g.End() == r.page {
			groups[n-1].g.NPages++
			if r.seq < groups[n-1].minSeq {
				groups[n-1].minSeq = r.seq
			}
			continue
		}
		groups = append(groups, grp{snapshot.Group{Start: r.page, NPages: 1}, r.seq})
	}
	if !offsetOrder {
		sort.SliceStable(groups, func(i, j int) bool { return groups[i].minSeq < groups[j].minSeq })
	}
	ws := &snapshot.OffsetsWS{Groups: make([]snapshot.Group, len(groups))}
	for i, g := range groups {
		ws.Groups[i] = g.g
	}
	return ws
}

// PrepareVM implements prefetch.Prefetcher: the loading phase of
// §3.1 / Figure 1. The VMM (1) loads the grouped offsets into the
// kernel via eBPF maps, (2) attaches the prefetch program to the
// add_to_page_cache_lru kprobe, and triggers prefetching by accessing
// the first page of the snapshot; (3) the program issues readahead
// for every range through the snapbpf_prefetch kfunc and disables
// itself.
func (s *SnapBPF) PrepareVM(p *sim.Proc, env *prefetch.Env, vm *vmm.MicroVM) error {
	vm.MapSnapshotDefault(p)
	if !s.EnablePrefetch {
		env.NotifyPrepareDone(s.Name(), vm)
		return nil
	}
	if s.ws == nil {
		return fmt.Errorf("snapbpf: PrepareVM before Record")
	}
	if len(s.ws.Groups) == 0 {
		env.NotifyPrepareDone(s.Name(), vm)
		return nil
	}
	if env.Faults.MapLoadFails() {
		// The eBPF map/program load failed for this sandbox (memlock
		// pressure, verifier regression): skip the kernel prefetch and
		// fall back to plain demand paging from the snapshot mapping —
		// the invocation completes, just without the §3.1 speedup.
		env.Faults.CountFallback()
		env.NotifyDegraded(s.Name(), vm, "ebpf map load failure")
		env.NotifyPrepareDone(s.Name(), vm)
		return nil
	}
	h := env.Host
	EnsureKfunc(h)

	n := len(s.ws.Groups)
	pconf := ebpf.MustNewMap(ebpf.MapTypeArray, "snapbpf_pconf", 5)
	gstart := ebpf.MustNewMap(ebpf.MapTypeArray, "snapbpf_gstart", n)
	glen := ebpf.MustNewMap(ebpf.MapTypeArray, "snapbpf_glen", n)
	pconfFD := h.BPF.RegisterMap(pconf)
	gstartFD := h.BPF.RegisterMap(gstart)
	glenFD := h.BPF.RegisterMap(glen)

	// Step 1: userspace loads the offset schedule into the kernel.
	loadStart := p.Now()
	updates := 0
	for i, g := range s.ws.Groups {
		if err := gstart.Update(uint64(i), uint64(g.Start)); err != nil {
			return err
		}
		if err := glen.Update(uint64(i), uint64(g.NPages)); err != nil {
			return err
		}
		gstart.UserUpdates++
		glen.UserUpdates++
		updates += 2
	}
	confVals := [5]uint64{env.SnapInode.ID(), uint64(n), 0, 1, defaultPrefetchBatch}
	for k, v := range confVals {
		if err := pconf.Update(uint64(k), v); err != nil {
			return err
		}
		updates++
	}
	p.Sleep(time.Duration(updates) * h.CM.BPFMapUpdateUser)
	loadTook := p.Now().Sub(loadStart)
	s.OffsetLoads = append(s.OffsetLoads, loadTook)
	env.NotifyOffsetsLoaded(p, s.Name(), vm, n, loadTook)

	// The captured offsets double as the distribution tier's chunk
	// priority: hand the schedule's page order to the store so
	// WS-guided lazy pull fetches those chunks first.
	if env.ChunkPlan != nil {
		var pages []int64
		for _, g := range s.ws.Groups {
			for k := int64(0); k < g.NPages; k++ {
				pages = append(pages, g.Start+k)
			}
		}
		env.NotifyChunkPlan(p, pages)
	}

	// Step 2: attach the prefetch program.
	prog, err := h.BPF.Load("snapbpf-prefetch", buildPrefetchProgram(pconfFD, gstartFD, glenFD))
	if err != nil {
		return err
	}
	att, err := h.Probes.Attach(pagecache.HookAddToPageCacheLRU, prog)
	if err != nil {
		return err
	}
	s.attachments[vm] = att
	s.progs[vm] = prog

	// Trigger: access the first page of the snapshot. If it is
	// already cached (a concurrent sandbox prefetched it), nothing is
	// inserted and the program simply fires on the sandbox's first
	// demand miss instead.
	vm.AS.HandleFault(p, s.ws.Groups[0].Start, false)
	env.NotifyPrepareDone(s.Name(), vm)
	return nil
}

// FinishVM implements prefetch.Prefetcher: detach the sandbox's
// prefetch program.
func (s *SnapBPF) FinishVM(env *prefetch.Env, vm *vmm.MicroVM) {
	if att, ok := s.attachments[vm]; ok {
		delete(s.attachments, vm)
		if err := env.Host.Probes.Detach(att); err != nil {
			panic(err)
		}
	}
	if prog, ok := s.progs[vm]; ok {
		delete(s.progs, vm)
		s.PrefetchProgRuns += prog.Runs()
	}
}
