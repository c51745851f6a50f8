// Package obs is the observability layer of the simulated restore
// stack: a sim-time-native span tracer and metrics registry that
// attach to the same per-layer observer lists as the correctness
// harness (internal/check), side by side with it.
//
// A Recorder implements every layer's Observer interface and derives:
//
//   - spans: per-invocation phase trees (restore → prepare → invoke,
//     with per-fault service spans nested inside invoke, async IO
//     begin/end pairs, and instant events for prefetch-group issues,
//     readahead runs and degradations), exported as Chrome
//     trace_event JSON keyed on deterministic sim timestamps;
//   - metrics: a fixed set of counters and log2-bucket histograms
//     (p50/p95/p99), exported as Prometheus text and a
//     machine-readable metrics.json.
//
// Determinism contract: the recorder is pure observation — it never
// sleeps, schedules events or mutates observed state, so an armed
// recorder cannot change RunResult (the metamorphic tests in
// internal/experiments pin this). All timestamps are virtual sim
// time; rendering goes through integers only, so equal runs produce
// byte-identical trace and metrics documents regardless of the
// worker-pool width that scheduled them.
//
// Cost contract: with tracing disabled, every observer method is
// allocation-free on the fault and prefetch hot paths (asserted by
// TestDisabledTracerAllocs); with the whole layer disabled no
// recorder is attached at all and the stack runs exactly as before.
package obs

import (
	"time"

	"snapbpf/internal/faults"
	"snapbpf/internal/hostmm"
	"snapbpf/internal/kvm"
	"snapbpf/internal/pagecache"
	"snapbpf/internal/sim"
	"snapbpf/internal/vmm"
)

// Config selects what a run records.
type Config struct {
	// Trace records span events for Chrome trace_event export.
	Trace bool
	// Metrics records counters and histograms.
	Metrics bool
}

// DefaultMaxTraceEvents bounds one run's trace buffer; events beyond
// the cap are counted in snapbpf_trace_events_dropped_total instead of
// recorded.
const DefaultMaxTraceEvents = 1 << 20

// Enabled reports whether the config asks for any recording; a nil
// config is disabled.
func (c *Config) Enabled() bool { return c != nil && (c.Trace || c.Metrics) }

// frame is one open span on a process's stack: a vm lifecycle phase
// or an in-flight guest access. kind is the hostmm fault kind + 1 of
// the access's resolution (0 = none observed).
type frame struct {
	name  string
	start sim.Time
	pfn   int64
	write bool
	kind  int8
}

// proc is the recorder's state for one simulated process: its trace
// thread id, and its open frames, innermost last. The frame slice is
// reused across push/pop cycles, so the steady-state fault path never
// allocates.
type proc struct {
	tid int64
	fs  []frame
}

// Recorder observes one simulated host. Like every other observer,
// it runs only where its engine holds control, one process or
// callback at a time, so it needs no locking.
type Recorder struct {
	cfg Config
	eng *sim.Engine

	m meters

	maxEvents int
	events    *eventBuf                 // non-nil iff cfg.Trace
	threads   []string                  // tid -> thread name; tid 0 is the host
	procs     []*proc                   // per-process state, indexed by Proc.ID(); nil until first use
	vmEnd     map[*vmm.MicroVM]sim.Time // restore-end time per sandbox; nil unless tracing
	ioOpen    map[int64]sim.Time        // submit time per in-flight IO id
}

// Attach builds a recorder for cfg and adds it to every layer of the
// host — engine, block device, page cache, memory manager, the host's
// VM lifecycle and the KVM of every sandbox restored from now on —
// next to any observers already there. The caller adds it to
// prefetch.Env.Observers for scheme events and to a chunk cache's
// observers.
func Attach(h *vmm.Host, cfg Config) *Recorder {
	r := &Recorder{
		cfg:       cfg,
		eng:       h.Eng,
		maxEvents: DefaultMaxTraceEvents,
		threads:   []string{"host"},
		ioOpen:    make(map[int64]sim.Time),
	}
	if cfg.Trace {
		r.events = &eventBuf{}
		r.vmEnd = make(map[*vmm.MicroVM]sim.Time)
	}
	h.Eng.AddObserver(r)
	h.Dev.AddObserver(r)
	h.Cache.AddObserver(r)
	h.MM.AddObserver(r)
	h.AddObserver(r)
	h.AddKVMObserver(r)
	return r
}

// Report is the finished output of one run's recorder.
type Report struct {
	m          meters
	hasMetrics bool
	trace      *eventBuf // non-nil iff the run traced
	threads    []string
}

// Finish freezes the recorder into a report. Call once the engine has
// drained; the recorder must not observe further events.
func (r *Recorder) Finish() *Report {
	rep := &Report{m: r.m, hasMetrics: r.cfg.Metrics, threads: r.threads}
	if r.cfg.Trace {
		rep.trace = r.events
		if rep.trace == nil {
			rep.trace = &eventBuf{}
		}
	}
	return rep
}

// Metrics renders the report's metric snapshot (nil when metrics were
// not recorded).
func (r *Report) Metrics() *Snapshot {
	if !r.hasMetrics {
		return nil
	}
	return r.m.snapshot()
}

// TraceEventCount reports how many span events were recorded (0 when
// tracing was off).
func (r *Report) TraceEventCount() int {
	if r.trace == nil {
		return 0
	}
	return r.trace.len()
}

// TraceDropped reports events lost to the MaxTraceEvents cap.
func (r *Report) TraceDropped() int64 { return r.m.c[cTraceDropped] }

// ---------------------------------------------------------------------------
// internal helpers

// proc returns p's state, creating it on first use. Thread ids are
// assigned then, in first-use order (deterministic, since the engine
// dispatches deterministically), not in Proc.ID order.
func (r *Recorder) proc(p *sim.Proc) *proc {
	id := p.ID()
	if id >= len(r.procs) {
		r.procs = append(r.procs, make([]*proc, id+1-len(r.procs))...)
	}
	if r.procs[id] == nil {
		r.procs[id] = &proc{tid: int64(len(r.threads))}
		r.threads = append(r.threads, p.Name())
	}
	return r.procs[id]
}

// seen returns p's state, or nil when p is nil or not yet used.
func (r *Recorder) seen(p *sim.Proc) *proc {
	if p == nil || p.ID() >= len(r.procs) {
		return nil
	}
	return r.procs[p.ID()]
}

// tid returns the trace thread id of p; the host (a nil p) is 0.
func (r *Recorder) tid(p *sim.Proc) int64 {
	if p == nil {
		return 0
	}
	return r.proc(p).tid
}

// push opens f on p's frame stack; a nil p keeps no frames.
func (r *Recorder) push(p *sim.Proc, f frame) {
	if p != nil {
		pr := r.proc(p)
		pr.fs = append(pr.fs, f)
	}
}

// pop closes p's innermost open frame, if it has one.
func (r *Recorder) pop(p *sim.Proc) (frame, bool) {
	pr := r.seen(p)
	if pr == nil || len(pr.fs) == 0 {
		return frame{}, false
	}
	f := pr.fs[len(pr.fs)-1]
	pr.fs = pr.fs[:len(pr.fs)-1]
	return f, true
}

// emit appends an event with its arguments unless the buffer is full.
// The variadic args never escape (they are copied into the event's
// inline array before it is buffered), so a traced emit costs no heap
// allocation; callers still gate on cfg.Trace *before* building the
// event so the disabled-tracer path stays free.
func (r *Recorder) emit(ev Event, args ...Arg) {
	if r.events.len() >= r.maxEvents {
		r.m.c[cTraceDropped]++
		return
	}
	ev.nargs = uint8(copy(ev.args[:], args))
	r.events.append(&ev)
}

// ---------------------------------------------------------------------------
// sim.Observer — counters only; these fire on the engine's hottest
// paths (ScheduleDispatch), so they must stay branch + increment.

// EventScheduled implements sim.Observer.
func (r *Recorder) EventScheduled(at sim.Time) {
	r.m.c[cSimScheduled]++
}

// ClockAdvanced implements sim.Observer.
func (r *Recorder) ClockAdvanced(now sim.Time) {
	r.m.c[cSimAdvances]++
}

// ---------------------------------------------------------------------------
// blockdev.Observer — submission→completion latency via the IO id,
// async trace spans, NCQ occupancy and fault-treatment counters.

// IOSubmitted implements blockdev.Observer.
func (r *Recorder) IOSubmitted(id, off, length int64, sync bool, attempt, parts int) {
	if sync {
		r.m.c[cIOSubsSync]++
	} else {
		r.m.c[cIOSubsRA]++
	}
	r.m.c[cIOSubmitBytes] += length
	r.ioOpen[id] = r.eng.Now()
	if r.cfg.Trace {
		cls := "sync"
		if !sync {
			cls = "readahead"
		}
		r.emit(Event{Name: "io", Cat: "io", Ph: 'b', Ts: r.eng.Now(), ID: id},
			argInt("off", off), argInt("len", length),
			argStr("class", cls), argInt("attempt", int64(attempt)), argInt("parts", int64(parts)))
	}
}

// RequestServiced implements blockdev.Observer.
func (r *Recorder) RequestServiced(off, length int64, attempt, inFlight int, out faults.ReadOutcome) {
	r.m.c[cIORequests]++
	r.m.h[hNCQInflight].observe(histUnits[hNCQInflight], int64(inFlight))
	if out.Err {
		r.m.c[cIOReqErrors]++
	}
	if out.ExtraMediaTime > 0 {
		r.m.c[cIOReqSpikes]++
	}
	if out.HoldSlot > 0 {
		r.m.c[cIOReqStuck]++
	}
	if out.Short {
		r.m.c[cIOReqShort]++
	}
}

// RequestCompleted implements blockdev.Observer.
func (r *Recorder) RequestCompleted(inFlight int) {}

// IOCompleted implements blockdev.Observer.
func (r *Recorder) IOCompleted(id int64, failed bool) {
	r.m.c[cIOCompletions]++
	if failed {
		r.m.c[cIOFailures]++
	}
	now := r.eng.Now()
	if start, ok := r.ioOpen[id]; ok {
		r.m.h[hIOLatency].observe(histUnits[hIOLatency], int64(now.Sub(start)))
		delete(r.ioOpen, id)
	}
	if r.cfg.Trace {
		fl := int64(0)
		if failed {
			fl = 1
		}
		r.emit(Event{Name: "io", Cat: "io", Ph: 'e', Ts: now, ID: id},
			argInt("failed", fl))
	}
}

// ---------------------------------------------------------------------------
// pagecache.Observer — insert/evict/remove counters and readahead
// runs (the per-prefetch-group issue events of the SnapBPF kfunc and
// the Linux readahead window).

// PageInserted implements pagecache.Observer.
func (r *Recorder) PageInserted(ino *pagecache.Inode, idx int64, readahead bool) {
	if readahead {
		r.m.c[cCacheInsertsRA]++
	} else {
		r.m.c[cCacheInsertsDemand]++
	}
}

// PageEvicted implements pagecache.Observer.
func (r *Recorder) PageEvicted(ino *pagecache.Inode, idx int64) {
	r.m.c[cCacheEvictions]++
}

// PageRemoved implements pagecache.Observer.
func (r *Recorder) PageRemoved(ino *pagecache.Inode, idx int64) {
	r.m.c[cCacheRemovals]++
}

// ReadaheadIssued implements pagecache.Observer.
func (r *Recorder) ReadaheadIssued(ino *pagecache.Inode, start, n, inserted int64) {
	r.m.c[cReadaheadCalls]++
	r.m.c[cReadaheadPages] += inserted
	r.m.h[hReadaheadRunPages].observe(histUnits[hReadaheadRunPages], n)
	if r.cfg.Trace {
		r.emit(Event{Name: "readahead", Cat: "prefetch", Ph: 'i', Ts: r.eng.Now()},
			argStr("file", ino.Name()), argInt("start", start),
			argInt("pages", n), argInt("inserted", inserted))
	}
}

// ---------------------------------------------------------------------------
// hostmm.Observer — space lifecycle, rmap/dedup and fault-kind
// counters, plus fault-kind attribution of the open guest access.

// SpaceCreated implements hostmm.Observer.
func (r *Recorder) SpaceCreated(as *hostmm.AddressSpace) {
	r.m.c[cSpacesCreated]++
}

// SpaceReleased implements hostmm.Observer.
func (r *Recorder) SpaceReleased(as *hostmm.AddressSpace) {
	r.m.c[cSpacesReleased]++
}

// FilePageMapped implements hostmm.Observer.
func (r *Recorder) FilePageMapped(as *hostmm.AddressSpace, page int64, ino *pagecache.Inode, fileIdx int64) {
	r.m.c[cFileMaps]++
	// A second sandbox mapping an already-mapped cache page is the
	// in-memory working-set dedup the paper measures. hostmm fires
	// this hook after taking the rmap reference, so the page's count
	// includes this mapping.
	if ino.MapCount(fileIdx) > 1 {
		r.m.c[cFileMapsShared]++
	}
}

// FilePageUnmapped implements hostmm.Observer.
func (r *Recorder) FilePageUnmapped(as *hostmm.AddressSpace, page int64, ino *pagecache.Inode, fileIdx int64) {
	r.m.c[cFileUnmaps]++
}

// AnonInstalled implements hostmm.Observer.
func (r *Recorder) AnonInstalled(as *hostmm.AddressSpace, page int64, content uint64, known bool) {
	r.m.c[cAnonInstalls]++
}

// AnonDropped implements hostmm.Observer.
func (r *Recorder) AnonDropped(as *hostmm.AddressSpace, page int64) {
	r.m.c[cAnonDrops]++
}

// faultCounter maps a hostmm fault kind to its counter index.
func faultCounter(kind hostmm.FaultKind) int {
	switch kind {
	case hostmm.FaultMinor:
		return cFaultMinor
	case hostmm.FaultFile:
		return cFaultFile
	case hostmm.FaultZeroFill:
		return cFaultZero
	case hostmm.FaultCoW:
		return cFaultCoW
	default:
		return cFaultUffd
	}
}

// FaultResolved implements hostmm.Observer.
func (r *Recorder) FaultResolved(p *sim.Proc, as *hostmm.AddressSpace, page int64, write bool, kind hostmm.FaultKind) {
	r.m.c[faultCounter(kind)]++
	// Attribute the resolution to the innermost open guest access of
	// the faulting task so its span is named after how it resolved.
	if pr := r.seen(p); pr != nil && len(pr.fs) > 0 {
		pr.fs[len(pr.fs)-1].kind = int8(kind) + 1
	}
}

// ---------------------------------------------------------------------------
// kvm.Observer — guest access bracketing: TLB hits count, slow
// accesses (faults) become spans named after their resolution.

// AccessBegin implements kvm.Observer.
func (r *Recorder) AccessBegin(p *sim.Proc, v *kvm.VM, pfn int64, write bool) {
	r.m.c[cGuestAccesses]++
	if write {
		r.m.c[cGuestWrites]++
	}
	r.push(p, frame{start: r.eng.Now(), pfn: pfn, write: write})
}

// accessNames maps frame.kind (hostmm fault kind + 1) to a span name.
var accessNames = [...]string{"fault", "fault:minor", "fault:file", "fault:zerofill", "fault:cow", "fault:uffd"}

// AccessEnd implements kvm.Observer.
func (r *Recorder) AccessEnd(p *sim.Proc, v *kvm.VM, pfn int64, write, mirror bool) {
	now := r.eng.Now()
	if mirror {
		r.m.c[cGuestMirror]++
	}
	if f, ok := r.pop(p); ok {
		d := now.Sub(f.start)
		if d == 0 && f.kind == 0 {
			// Fast path: nested-TLB hit, no time passed, nothing
			// resolved. Count it and move on — tracing every hit
			// would dwarf the interesting events.
			r.m.c[cGuestTLBHits]++
		} else {
			r.m.h[hFaultService].observe(histUnits[hFaultService], int64(d))
			if r.cfg.Trace {
				name := accessNames[0]
				if int(f.kind) < len(accessNames) {
					name = accessNames[f.kind]
				}
				wr := int64(0)
				if write {
					wr = 1
				}
				r.emit(Event{Name: name, Cat: "fault", Ph: 'X', Ts: f.start, Dur: d, Tid: r.tid(p)},
					argInt("pfn", pfn), argInt("write", wr))
			}
		}
	}
}

// ---------------------------------------------------------------------------
// vmm.Observer — sandbox lifecycle phases.

// RestoreBegin implements vmm.Observer.
func (r *Recorder) RestoreBegin(p *sim.Proc, name string) {
	r.push(p, frame{name: name, start: r.eng.Now()})
}

// RestoreEnd implements vmm.Observer.
func (r *Recorder) RestoreEnd(p *sim.Proc, vm *vmm.MicroVM) {
	now := r.eng.Now()
	r.m.c[cRestores]++
	if f, ok := r.pop(p); ok {
		r.m.h[hRestore].observe(histUnits[hRestore], int64(now.Sub(f.start)))
		if r.cfg.Trace {
			r.emit(Event{Name: "restore", Cat: "vm", Ph: 'X', Ts: f.start, Dur: now.Sub(f.start),
				Tid: r.tid(p)}, argStr("vm", vm.Name))
		}
	}
	if r.cfg.Trace {
		r.vmEnd[vm] = now
	}
}

// VMPrepared implements vmm.Observer. The prepare span runs from the
// sandbox's restore end to MarkPrepared, covering the prefetcher's
// PrepareVM work on the same process.
func (r *Recorder) VMPrepared(p *sim.Proc, vm *vmm.MicroVM, prep time.Duration) {
	now := r.eng.Now()
	r.m.c[cVMPrepared]++
	r.m.h[hPrepare].observe(histUnits[hPrepare], int64(prep))
	if r.cfg.Trace {
		start, ok := r.vmEnd[vm]
		if !ok {
			start = now
		}
		r.emit(Event{Name: "prepare", Cat: "vm", Ph: 'X', Ts: start, Dur: now.Sub(start),
			Tid: r.tid(p)}, argStr("vm", vm.Name))
	}
}

// InvokeBegin implements vmm.Observer.
func (r *Recorder) InvokeBegin(p *sim.Proc, vm *vmm.MicroVM) {
	r.push(p, frame{name: vm.Name, start: r.eng.Now()})
}

// InvokeEnd implements vmm.Observer.
func (r *Recorder) InvokeEnd(p *sim.Proc, vm *vmm.MicroVM, st vmm.InvokeStats) {
	now := r.eng.Now()
	r.m.c[cInvokes]++
	r.m.h[hInvokeExec].observe(histUnits[hInvokeExec], int64(st.Exec))
	r.m.h[hE2E].observe(histUnits[hE2E], int64(st.E2E))
	if f, ok := r.pop(p); ok {
		if r.cfg.Trace {
			r.emit(Event{Name: "invoke", Cat: "vm", Ph: 'X', Ts: f.start, Dur: now.Sub(f.start),
				Tid: r.tid(p)}, argStr("vm", vm.Name))
		}
	}
}

// ---------------------------------------------------------------------------
// prefetch.Observer — scheme-level lifecycle, prefetch-group issues
// and degradations.

// RecordDone implements prefetch.Observer.
func (r *Recorder) RecordDone(scheme string, wsPages int64) {
	r.m.c[cRecords]++
}

// ArtifactRegistered implements prefetch.Observer.
func (r *Recorder) ArtifactRegistered(ino *pagecache.Inode, tags []uint64) {
	r.m.c[cArtifacts]++
}

// PrepareDone implements prefetch.Observer.
func (r *Recorder) PrepareDone(scheme string, vm *vmm.MicroVM) {
	r.m.c[cSchemePrepares]++
}

// Degraded implements prefetch.Observer.
func (r *Recorder) Degraded(scheme string, vm *vmm.MicroVM, reason string) {
	r.m.c[cDegraded]++
	if r.cfg.Trace {
		r.emit(Event{Name: "degraded", Cat: "scheme", Ph: 'i', Ts: r.eng.Now()},
			argStr("scheme", scheme), argStr("vm", vm.Name), argStr("reason", reason))
	}
}

// PrefetchIssued implements prefetch.Observer.
func (r *Recorder) PrefetchIssued(p *sim.Proc, scheme string, vm *vmm.MicroVM, start, npages int64) {
	r.m.c[cPrefetchGroups]++
	r.m.c[cPrefetchPages] += npages
	r.m.h[hPrefetchGroupPages].observe(histUnits[hPrefetchGroupPages], npages)
	if r.cfg.Trace {
		r.emit(Event{Name: "prefetch-issue", Cat: "prefetch", Ph: 'i', Ts: r.eng.Now(), Tid: r.tid(p)},
			argStr("scheme", scheme), argStr("vm", vm.Name),
			argInt("start", start), argInt("pages", npages))
	}
}

// OffsetsLoaded implements prefetch.Observer.
func (r *Recorder) OffsetsLoaded(p *sim.Proc, scheme string, vm *vmm.MicroVM, groups int, took time.Duration) {
	now := r.eng.Now()
	r.m.c[cOffsetLoads]++
	r.m.h[hOffsetLoad].observe(histUnits[hOffsetLoad], int64(took))
	if r.cfg.Trace {
		r.emit(Event{Name: "ws-load", Cat: "prefetch", Ph: 'X',
			Ts: now.Add(-took), Dur: sim.Duration(took), Tid: r.tid(p)},
			argStr("scheme", scheme), argStr("vm", vm.Name), argInt("groups", int64(groups)))
	}
}
