// Package experiments contains the evaluation harness: it composes
// hosts, snapshots, prefetchers and workloads into the measurements
// behind every table and figure of the paper (§4), and formats them
// as aligned text tables and CSV.
//
// Each run uses a fresh simulated host. The record phase (if the
// scheme has one) executes first; the page cache is then dropped and
// device counters reset, so the measured invocation phase starts cold
// — matching the paper's methodology of measuring cold-start
// invocations.
package experiments

import (
	"fmt"
	"time"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/check"
	"snapbpf/internal/core"
	"snapbpf/internal/faults"
	"snapbpf/internal/obs"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/prefetch/faasnap"
	"snapbpf/internal/prefetch/faast"
	"snapbpf/internal/prefetch/reap"
	"snapbpf/internal/sim"
	"snapbpf/internal/store"
	"snapbpf/internal/trace"
	"snapbpf/internal/units"
	"snapbpf/internal/vmm"
	"snapbpf/internal/workload"
)

// Scheme is a named prefetcher factory. A fresh Prefetcher is built
// per (function, run) because prefetchers hold per-function artifacts.
type Scheme struct {
	Name string
	New  func() prefetch.Prefetcher
}

// Standard schemes.
var (
	SchemeLinuxNoRA = Scheme{"Linux-NoRA", func() prefetch.Prefetcher { return prefetch.NewLinuxNoRA() }}
	SchemeLinuxRA   = Scheme{"Linux-RA", func() prefetch.Prefetcher { return prefetch.NewLinuxRA() }}
	SchemeREAP      = Scheme{"REAP", func() prefetch.Prefetcher { return reap.New() }}
	SchemeFaast     = Scheme{"Faast", func() prefetch.Prefetcher { return faast.New() }}
	SchemeFaaSnap   = Scheme{"FaaSnap", func() prefetch.Prefetcher { return faasnap.New() }}
	SchemeSnapBPF   = Scheme{"SnapBPF", func() prefetch.Prefetcher { return core.New() }}
	SchemePVOnly    = Scheme{"PVPTEs", func() prefetch.Prefetcher { return core.NewPVOnly() }}
)

// RunResult is the measurement of one (scheme, function, concurrency)
// cell.
type RunResult struct {
	Scheme   string
	Function string
	N        int

	// E2E per sandbox; Mean/Max aggregates.
	E2E     []time.Duration
	MeanE2E time.Duration
	MaxE2E  time.Duration

	// MeanPrepare is the prefetcher preparation share of E2E.
	MeanPrepare time.Duration

	// SystemMemory is the system-wide memory footprint (page cache +
	// anonymous) once all invocations completed, before sandbox
	// teardown — the Figure 3c quantity.
	SystemMemory units.ByteSize

	// DeviceBytes/DeviceRequests count invocation-phase storage
	// traffic (record-phase traffic excluded).
	DeviceBytes    int64
	DeviceRequests int64

	// OffsetLoad is SnapBPF's mean eBPF offset-loading time, zero for
	// other schemes.
	OffsetLoad time.Duration

	// WSGroups is the number of contiguous offset groups in SnapBPF's
	// captured schedule, zero for other schemes.
	WSGroups int

	// Evictions counts page-cache reclaim events during the
	// invocation phase (nonzero only with CacheLimitPages set).
	Evictions int64

	// Faults reports what the run's fault injector did (zero value
	// when the run was healthy): injected events, plus the retries and
	// demand-paging fallbacks the stack absorbed them with.
	Faults faults.Report

	// Digest is the checker's fold of final guest-visible memory
	// (state pages only), recorded when Config.Check is set and
	// InputVariance is 0 so all sandboxes replay the same trace. Any
	// two correct schemes produce equal digests for the same cell —
	// the differential-testing oracle.
	Digest uint64

	// Obs is the run's observability report (trace spans and/or
	// metrics), non-nil only when Config.Obs asked for recording.
	Obs *obs.Report

	// CheckCounts is the checker's independent event tally, non-nil
	// only when Config.Check was set. The conservation tests reconcile
	// it against Obs metrics and the Faults report.
	CheckCounts *check.Counts

	// Store is the host chunk cache's traffic and StoreRemote the
	// remote backend's, non-nil only when Config.Store selected a
	// non-local tier.
	Store       *store.CacheStats
	StoreRemote *store.RemoteStats
}

// Config tunes a run.
type Config struct {
	// N is the number of concurrent sandboxes (1 or 10 in the paper).
	N int
	// Device selects the storage model; zero value means the paper's
	// Micron 5300 SATA SSD.
	Device blockdev.Params
	// AllocDrift rotates the guest allocator free lists per sandbox,
	// modelling allocator-state drift between the record invocation
	// and production invocations. The paper's methodology invokes
	// with identical inputs (drift is called out as future work), so
	// the default is 0; the drift ablation raises it.
	AllocDrift int

	// InputVariance in [0, 1] gives every sandbox a *different input*:
	// each invocation trace is a per-sandbox variant of the recorded
	// one (skipped regions, extra writes). 0 reproduces the paper's
	// identical-input methodology; the varying-inputs extension sweeps
	// it (the paper defers this to future work).
	InputVariance float64

	// CacheLimitPages bounds the host page cache during the
	// invocation phase (0 = unlimited, the paper's 128GiB-per-socket
	// testbed is effectively unconstrained).
	CacheLimitPages int64

	// Faults, when non-nil and enabled, injects storage and
	// scheme-level faults for the whole run (record + invocation
	// phases), seeded by the plan — reruns with an equal plan are
	// byte-identical. Nil or a disabled plan means a healthy run.
	Faults *faults.Plan

	// Check arms the invariant-checking harness (internal/check): a
	// Checker observes every layer of the run, Run fails with the
	// collected violations if any invariant breaks, and — when
	// InputVariance is 0 — the final guest-memory digest is recorded
	// in RunResult.Digest and checked for equality across sandboxes.
	Check bool

	// Obs, when non-nil and enabled, arms the observability layer
	// (internal/obs): a Recorder observes every layer of the run and
	// the resulting trace/metrics report lands in RunResult.Obs.
	// Composes with Check — the checker and the recorder attach side by
	// side, so both see the identical stream.
	Obs *obs.Config

	// Store, when non-nil with a non-local tier, places the snapshot
	// in the simulated distribution tier (internal/store): chunks are
	// pulled from the remote under Store.Policy, through a host chunk
	// cache that starts warm or cold per Store.Tier. Nil or TierLocal
	// reproduces the paper's local-SSD baseline exactly.
	Store *store.Setup
}

// invokeTrace returns sandbox i's trace under the configured variance.
func (cfg Config) invokeTrace(env *prefetch.Env, i int) *trace.Trace {
	if cfg.InputVariance <= 0 {
		return env.InvokeTrace
	}
	return env.Fn.GenTraceVariant(int64(i+1), cfg.InputVariance*0.3, cfg.InputVariance*0.25)
}

// Run executes one cell: record once, then N concurrent invocations
// of fn under the scheme.
func Run(fn workload.Function, scheme Scheme, cfg Config) (*RunResult, error) {
	if cfg.N < 0 {
		return nil, fmt.Errorf("run %s/%s: negative sandbox count %d", scheme.Name, fn.Name, cfg.N)
	}
	if cfg.N == 0 {
		cfg.N = 1
	}
	if cfg.Device.Name == "" {
		cfg.Device = blockdev.MicronSATA5300()
	}
	var inj *faults.Injector
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("run %s/%s: %w", scheme.Name, fn.Name, err)
		}
		if cfg.Faults.Enabled() {
			inj = faults.NewInjector(*cfg.Faults)
		}
	}
	h := vmm.NewHost(cfg.Device)
	h.Dev.SetFaults(inj)
	// Arm the harness before any simulated event so the shadow state
	// observes the run from the very first page-cache insert.
	var chk *check.Checker
	var rec *obs.Recorder
	var schemeObs []prefetch.Observer
	if cfg.Check {
		chk = check.New(h, inj)
		schemeObs = append(schemeObs, chk)
	}
	if cfg.Obs.Enabled() {
		rec = obs.Attach(h, *cfg.Obs)
		schemeObs = append(schemeObs, rec)
	}
	pf := scheme.New()

	zeroOnFree := pf.RestoreConfig(0).ZeroOnFree
	img := vmm.BuildImage(fn, zeroOnFree)
	snapInode := h.RegisterSnapshot(fn.Name+".snapmem", img)
	if chk != nil {
		chk.RegisterFileTags(snapInode, img.PageTags)
	}
	env := &prefetch.Env{
		Host:        h,
		Fn:          fn,
		Image:       img,
		SnapInode:   snapInode,
		RecordTrace: fn.GenTrace(),
		InvokeTrace: fn.GenTrace(),
		Faults:      inj,
		Observers:   schemeObs,
	}

	// --- Distribution tier ---
	// With a non-local tier the snapshot's chunks live in the remote
	// store: device reads of the snapshot inode are staged behind the
	// host chunk cache, and SnapBPF's captured offsets feed the
	// chunk-priority plan. TierLocal leaves everything untouched.
	var bind *store.Binding
	var hcStore *store.HostCache
	var remote *store.Remote
	if sc := cfg.Store; sc != nil && sc.Tier != store.TierLocal {
		remote = store.NewRemote(sc.Params)
		hcStore = store.NewHostCache(h.Eng, remote, inj)
		if chk != nil {
			chk.AttachStore(hcStore)
		}
		if rec != nil {
			hcStore.AddObserver(rec)
		}
		man := store.BuildManifest(fn.Name, img.PageTags, remote.Params().ChunkPages)
		if sc.SabotageChunk > 0 && sc.SabotageChunk <= len(man.Chunks) {
			// Test knob: forge one manifest hash (stale manifest / corrupt
			// chunk); the checker must flag the fetch.
			man.Chunks[sc.SabotageChunk-1].ID ^= 0xdeadbeef
		}
		if sc.PermuteChunks != 0 {
			store.PermuteChunks(man, sc.PermuteChunks)
		}
		bind = hcStore.Bind(man, sc.Policy, img.PageTags)
		snapInode.SetStager(bind)
		env.ChunkPlan = bind.Plan
	}

	// --- Record phase ---
	var recErr error
	h.Eng.Go("record", func(p *sim.Proc) {
		recErr = pf.Record(p, env)
	})
	h.Eng.Run()
	if recErr != nil {
		return nil, fmt.Errorf("record %s/%s: %w", scheme.Name, fn.Name, recErr)
	}
	h.Cache.DropCaches()
	h.Dev.ResetStats()
	h.Cache.SetMemLimit(cfg.CacheLimitPages)
	if bind != nil {
		switch cfg.Store.Tier {
		case store.TierCold:
			// Cold remote: the measured phase starts with an empty
			// chunk cache, as a host that never ran this function.
			hcStore.Drop()
		case store.TierWarm:
			// Warm cache: a previous instance pulled every chunk.
			// Preload through the normal fetch path, drained before
			// the first measured restore.
			h.Eng.Go("store-preload", func(p *sim.Proc) { bind.Preload(p) })
			h.Eng.Run()
		}
	}

	// --- Invocation phase: N concurrent sandboxes ---
	res := &RunResult{Scheme: pf.Name(), Function: fn.Name, N: cfg.N,
		E2E: make([]time.Duration, cfg.N)}
	vms := make([]*vmm.MicroVM, cfg.N)
	digests := make([]uint64, cfg.N)
	var prepSum time.Duration
	// Several sandboxes can fail; keep the *first* failure (and the
	// failing VM's index) so diagnostics are stable — within one engine
	// the dispatch order, and therefore "first", is deterministic.
	var invErr error
	invErrVM := -1
	fail := func(i int, err error) {
		if invErr == nil {
			invErr, invErrVM = err, i
		}
	}
	for i := 0; i < cfg.N; i++ {
		i := i
		h.Eng.Go(fmt.Sprintf("vm%d", i), func(p *sim.Proc) {
			vm, err := h.Restore(p, fmt.Sprintf("%s-vm%d", fn.Name, i), fn, img, snapInode,
				pf.RestoreConfig(cfg.AllocDrift*(1+i)))
			if err != nil {
				fail(i, err)
				return
			}
			vms[i] = vm
			if bind != nil {
				// Full-download policy blocks restores until the whole
				// snapshot is local; other policies return at once. The
				// wait lands in E2E, like the real registry pull.
				bind.BeginRestore(p)
			}
			if err := pf.PrepareVM(p, env, vm); err != nil {
				fail(i, err)
				return
			}
			vm.MarkPrepared(p)
			st, err := vm.Invoke(p, cfg.invokeTrace(env, i))
			if err != nil {
				fail(i, err)
				return
			}
			res.E2E[i] = st.E2E
			prepSum += st.Prepare
			pf.FinishVM(env, vm)
			if chk != nil {
				// Digest before Shutdown: the shadow page table is
				// consumed with the address space.
				digests[i] = chk.VMDone(vm)
			}
		})
	}
	h.Eng.Run()
	if invErr != nil {
		return nil, fmt.Errorf("invoke %s/%s: vm%d: %w", scheme.Name, fn.Name, invErrVM, invErr)
	}

	// Memory before teardown: everything sandboxes still hold.
	res.SystemMemory = units.PagesToBytes(h.MM.SystemMemoryPages())
	for _, vm := range vms {
		if vm != nil {
			vm.Shutdown()
		}
	}
	if chk != nil {
		if cfg.InputVariance == 0 {
			// Identical inputs: every sandbox must converge to the same
			// guest-visible memory, whatever the scheme did to get there.
			for i := 1; i < cfg.N; i++ {
				if digests[i] != digests[0] {
					return nil, fmt.Errorf("check %s/%s: vm%d digest %016x != vm0 digest %016x",
						scheme.Name, fn.Name, i, digests[i], digests[0])
				}
			}
			res.Digest = digests[0]
		}
		if err := chk.Finish(); err != nil {
			return nil, fmt.Errorf("check %s/%s: %w", scheme.Name, fn.Name, err)
		}
	}

	if rec != nil {
		res.Obs = rec.Finish()
	}
	if chk != nil {
		cc := chk.Counts()
		res.CheckCounts = &cc
	}

	var sum time.Duration
	for _, e := range res.E2E {
		sum += e
		if e > res.MaxE2E {
			res.MaxE2E = e
		}
	}
	res.MeanE2E = sum / time.Duration(cfg.N)
	res.MeanPrepare = prepSum / time.Duration(cfg.N)
	res.DeviceBytes = h.Dev.Stats().BytesRead
	res.DeviceRequests = h.Dev.Stats().Requests
	res.Evictions = h.Cache.Evictions()
	res.Faults = inj.Report()
	if hcStore != nil {
		cs := hcStore.Stats()
		res.Store = &cs
		rs := remote.Stats()
		res.StoreRemote = &rs
	}

	if s, ok := pf.(*core.SnapBPF); ok {
		if len(s.OffsetLoads) > 0 {
			var t time.Duration
			for _, d := range s.OffsetLoads {
				t += d
			}
			res.OffsetLoad = t / time.Duration(len(s.OffsetLoads))
		}
		if ws := s.WorkingSet(); ws != nil {
			res.WSGroups = len(ws.Groups)
		}
	}
	return res, nil
}

// WavesResult is the measurement of a steady-state run: repeated
// bursts ("waves") of cold starts of the same function on one host,
// with sandboxes torn down between waves. Page-cache-based schemes
// keep the working set warm across waves; userfaultfd-based schemes
// rebuild their private copies every time.
type WavesResult struct {
	Scheme string
	// WaveE2E is the mean sandbox E2E per wave.
	WaveE2E []time.Duration
	// DeviceBytes is total invocation-phase storage traffic.
	DeviceBytes int64
	// PeakMemory is the largest footprint observed at a wave end.
	PeakMemory units.ByteSize
}

// RunWaves records once, then runs `waves` bursts of `perWave`
// concurrent sandboxes with `gap` of idle time between bursts.
func RunWaves(fn workload.Function, scheme Scheme, waves, perWave int, gap time.Duration, device blockdev.Params) (*WavesResult, error) {
	if waves <= 0 || perWave <= 0 {
		return nil, fmt.Errorf("waves and perWave must be positive")
	}
	if device.Name == "" {
		device = blockdev.MicronSATA5300()
	}
	h := vmm.NewHost(device)
	pf := scheme.New()
	img := vmm.BuildImage(fn, pf.RestoreConfig(0).ZeroOnFree)
	snapInode := h.RegisterSnapshot(fn.Name+".snapmem", img)
	env := &prefetch.Env{
		Host:        h,
		Fn:          fn,
		Image:       img,
		SnapInode:   snapInode,
		RecordTrace: fn.GenTrace(),
		InvokeTrace: fn.GenTrace(),
	}
	var recErr error
	h.Eng.Go("record", func(p *sim.Proc) { recErr = pf.Record(p, env) })
	h.Eng.Run()
	if recErr != nil {
		return nil, recErr
	}
	h.Cache.DropCaches()
	h.Dev.ResetStats()

	res := &WavesResult{Scheme: pf.Name()}
	var invErr error
	fail := func(w, i int, err error) {
		if invErr == nil {
			invErr = fmt.Errorf("wave %d vm%d: %w", w, i, err)
		}
	}
	start := h.Eng.Now()
	for w := 0; w < waves; w++ {
		w := w
		var sum time.Duration
		vms := make([]*vmm.MicroVM, perWave)
		for i := 0; i < perWave; i++ {
			i := i
			h.Eng.GoAfter(start.Add(time.Duration(w)*gap).Sub(h.Eng.Now()),
				fmt.Sprintf("w%d-vm%d", w, i), func(p *sim.Proc) {
					vm, err := h.Restore(p, fmt.Sprintf("w%d-vm%d", w, i), fn, img, snapInode,
						pf.RestoreConfig(0))
					if err != nil {
						fail(w, i, err)
						return
					}
					vms[i] = vm
					if err := pf.PrepareVM(p, env, vm); err != nil {
						fail(w, i, err)
						return
					}
					vm.MarkPrepared(p)
					st, err := vm.Invoke(p, env.InvokeTrace)
					if err != nil {
						fail(w, i, err)
						return
					}
					sum += st.E2E
					pf.FinishVM(env, vm)
				})
		}
		h.Eng.Run() // wave completes (plus its prefetch threads)
		if invErr != nil {
			return nil, invErr
		}
		if mem := units.PagesToBytes(h.MM.SystemMemoryPages()); mem > res.PeakMemory {
			res.PeakMemory = mem
		}
		for _, vm := range vms {
			if vm != nil {
				vm.Shutdown()
			}
		}
		res.WaveE2E = append(res.WaveE2E, sum/time.Duration(perWave))
	}
	res.DeviceBytes = h.Dev.Stats().BytesRead
	return res, nil
}

// MixedResult is the measurement of a co-location run: sandboxes of
// several different functions sharing one host and SSD.
type MixedResult struct {
	Scheme string
	// PerFunction maps function name to its sandboxes' mean E2E.
	PerFunction map[string]time.Duration
	// SystemMemory is the whole host's footprint at completion.
	SystemMemory units.ByteSize
	// DeviceBytes is the invocation-phase storage traffic.
	DeviceBytes int64
}

// RunMixed records every function once, then starts perFn sandboxes
// of *each* function concurrently on one shared host — the
// multi-tenant co-location scenario a FaaS node actually faces.
func RunMixed(fns []workload.Function, scheme Scheme, perFn int, device blockdev.Params) (*MixedResult, error) {
	if len(fns) == 0 {
		return nil, fmt.Errorf("mixed %s: no functions given", scheme.Name)
	}
	if perFn <= 0 {
		perFn = 1
	}
	if device.Name == "" {
		device = blockdev.MicronSATA5300()
	}
	h := vmm.NewHost(device)

	type fnCtx struct {
		pf  prefetch.Prefetcher
		env *prefetch.Env
	}
	ctxs := make([]fnCtx, len(fns))
	for i, fn := range fns {
		pf := scheme.New()
		img := vmm.BuildImage(fn, pf.RestoreConfig(0).ZeroOnFree)
		ctxs[i] = fnCtx{pf: pf, env: &prefetch.Env{
			Host:        h,
			Fn:          fn,
			Image:       img,
			SnapInode:   h.RegisterSnapshot(fn.Name+".snapmem", img),
			RecordTrace: fn.GenTrace(),
			InvokeTrace: fn.GenTrace(),
		}}
	}

	// Record phases run sequentially on the shared host.
	var recErr error
	h.Eng.Go("record", func(p *sim.Proc) {
		for _, c := range ctxs {
			if err := c.pf.Record(p, c.env); err != nil {
				recErr = err
				return
			}
		}
	})
	h.Eng.Run()
	if recErr != nil {
		return nil, fmt.Errorf("mixed record %s: %w", scheme.Name, recErr)
	}
	h.Cache.DropCaches()
	h.Dev.ResetStats()

	res := &MixedResult{Scheme: scheme.Name, PerFunction: make(map[string]time.Duration)}
	sums := make([]time.Duration, len(fns))
	var vms []*vmm.MicroVM
	var invErr error
	fail := func(fn string, k int, err error) {
		if invErr == nil {
			invErr = fmt.Errorf("%s-vm%d: %w", fn, k, err)
		}
	}
	for i := range ctxs {
		for k := 0; k < perFn; k++ {
			i, k := i, k
			c := ctxs[i]
			h.Eng.Go(fmt.Sprintf("%s-vm%d", c.env.Fn.Name, k), func(p *sim.Proc) {
				vm, err := h.Restore(p, fmt.Sprintf("%s-vm%d", c.env.Fn.Name, k),
					c.env.Fn, c.env.Image, c.env.SnapInode, c.pf.RestoreConfig(0))
				if err != nil {
					fail(c.env.Fn.Name, k, err)
					return
				}
				vms = append(vms, vm)
				if err := c.pf.PrepareVM(p, c.env, vm); err != nil {
					fail(c.env.Fn.Name, k, err)
					return
				}
				vm.MarkPrepared(p)
				st, err := vm.Invoke(p, c.env.InvokeTrace)
				if err != nil {
					fail(c.env.Fn.Name, k, err)
					return
				}
				sums[i] += st.E2E
				c.pf.FinishVM(c.env, vm)
			})
		}
	}
	h.Eng.Run()
	if invErr != nil {
		return nil, fmt.Errorf("mixed invoke %s: %w", scheme.Name, invErr)
	}
	res.SystemMemory = units.PagesToBytes(h.MM.SystemMemoryPages())
	for _, vm := range vms {
		vm.Shutdown()
	}
	for i, fn := range fns {
		res.PerFunction[fn.Name] = sums[i] / time.Duration(perFn)
	}
	res.DeviceBytes = h.Dev.Stats().BytesRead
	return res, nil
}
