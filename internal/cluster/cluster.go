// Package cluster is the deterministic multi-host region simulator:
// N hosts, each wrapping the unchanged single-host stack (block
// device, page cache, memory manager, KVM, prefetch scheme), all
// advancing under one shared sim clock. A front end dispatches a
// seeded multi-tenant arrival stream through a pluggable router,
// token-bucket admission control, and per-host warm sandbox pools —
// the policy half ("How Low Can You Go?", Tan et al.) layered on the
// paper's calibrated restore mechanism, so routing, keep-alive, and
// admission can be evaluated together with the snapshot prefetcher
// rather than in isolation.
//
// Determinism contract: a Run is a pure function of its Config. All
// hosts share one engine, so event order is the engine's FIFO
// tie-break; routers break ties toward the lowest host index; every
// report iterates hosts in index order and groups by sorted keys.
package cluster

import (
	"fmt"
	"sort"
	"time"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/check"
	"snapbpf/internal/faults"
	"snapbpf/internal/obs"
	"snapbpf/internal/pagecache"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/sim"
	"snapbpf/internal/snapshot"
	"snapbpf/internal/store"
	"snapbpf/internal/units"
	"snapbpf/internal/vmm"
	"snapbpf/internal/workload"
)

// Scheme is a named prefetcher factory, mirroring the experiments
// harness's type (redeclared here so cluster does not import the
// harness that drives it).
type Scheme struct {
	Name string
	New  func() prefetch.Prefetcher
}

// Config describes one cluster run.
type Config struct {
	// Hosts is the region size. HostNames optionally labels the hosts
	// (defaults to host0..hostN-1); names are labels only — behaviour
	// depends solely on host index.
	Hosts     int
	HostNames []string

	// Device selects every host's storage model; zero value means the
	// paper's Micron 5300 SATA SSD.
	Device blockdev.Params

	// Scheme is the prefetch scheme every host runs.
	Scheme Scheme

	// Router selects the front-end routing policy.
	Router RouterKind

	// Admission, when non-nil, arms token-bucket admission control.
	Admission *Admission

	// KeepAlive configures the per-host warm sandbox pools.
	KeepAlive KeepAlive

	// Spec generates the arrival stream; alternatively Arrivals
	// supplies one directly (then Spec is ignored).
	Spec     workload.ClusterSpec
	Arrivals []workload.Arrival

	// Functions resolves function names in the arrival stream. Names
	// not found here fall back to the built-in suite.
	Functions []workload.Function

	// CacheLimitPages bounds each host's page cache during the
	// invocation phase (0 = unlimited).
	CacheLimitPages int64

	// Faults, when non-nil and enabled, injects storage faults on the
	// hosts listed in FaultHosts (nil = every host). Each faulty host
	// derives its own injector seed from the plan seed and its index.
	Faults     *faults.Plan
	FaultHosts []int

	// Check arms one invariant checker per host; Run fails if any
	// host's invariants break, and cold-start guest digests must
	// converge per function across all hosts.
	Check bool

	// Obs arms one observability recorder per host; reports land in
	// Result.Hosts in host-index order.
	Obs *obs.Config

	// Store, when non-nil with a non-local tier, places every snapshot
	// in one region-shared remote store: each host runs its own chunk
	// cache (warm or cold per Store.Tier), and the shared remote's
	// duplicate-request accounting exposes cross-host dedup — chunks
	// the region fetched more than once because hosts do not share
	// caches.
	Store *store.Setup
}

// hostFn is one (host, function) serving context: the prefetcher and
// artifacts built during that host's record phase.
type hostFn struct {
	fn       workload.Function
	pf       prefetch.Prefetcher
	env      *prefetch.Env
	img      *snapshot.MemoryImage
	inode    *pagecache.Inode
	bind     *store.Binding // nil when the snapshot is on local SSD
	warmExec time.Duration  // pure compute time of one invocation
}

// host is one machine of the region.
type host struct {
	idx   int
	name  string
	h     *vmm.Host
	inj   *faults.Injector
	chk   *check.Checker
	rec   *obs.Recorder
	cache *store.HostCache // nil when the snapshot is on local SSD
	fns   map[string]*hostFn
	pool  warmPool

	active      int // in-flight invocations (router load signal)
	cold, warm  int
	warmEvicted int
}

// runState is the live dispatch state shared by the front end and the
// serving procs; everything runs on one engine, so access is already
// serialized.
type runState struct {
	cfg    Config
	eng    *sim.Engine
	hosts  []*host
	rt     router
	bkt    *bucket
	start  sim.Time
	res    *Result
	errVal error
	errSeq int
}

func (st *runState) fail(seq int, err error) {
	if st.errVal == nil {
		st.errVal, st.errSeq = err, seq
	}
}

func validate(cfg *Config) error {
	if cfg.Hosts <= 0 {
		return fmt.Errorf("cluster: host count must be positive, got %d", cfg.Hosts)
	}
	if len(cfg.HostNames) != 0 && len(cfg.HostNames) != cfg.Hosts {
		return fmt.Errorf("cluster: %d host names for %d hosts", len(cfg.HostNames), cfg.Hosts)
	}
	if cfg.Scheme.New == nil {
		return fmt.Errorf("cluster: no scheme configured")
	}
	if cfg.Device.Name == "" {
		cfg.Device = blockdev.MicronSATA5300()
	}
	if cfg.Router == "" {
		cfg.Router = RouterRoundRobin
	}
	if _, err := ParseRouter(string(cfg.Router)); err != nil {
		return err
	}
	if cfg.Admission != nil {
		if err := cfg.Admission.Validate(); err != nil {
			return err
		}
	}
	if err := cfg.KeepAlive.Validate(); err != nil {
		return err
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return err
		}
		for _, i := range cfg.FaultHosts {
			if i < 0 || i >= cfg.Hosts {
				return fmt.Errorf("cluster: fault host index %d out of range [0,%d)", i, cfg.Hosts)
			}
		}
	}
	return nil
}

// hostPlan returns the fault plan for host idx, or nil for a healthy
// host. Every faulty host gets its own derived seed so injections are
// independent streams but still a pure function of (plan, idx).
func hostPlan(cfg *Config, idx int) *faults.Plan {
	if cfg.Faults == nil || !cfg.Faults.Enabled() {
		return nil
	}
	if cfg.FaultHosts != nil {
		found := false
		for _, i := range cfg.FaultHosts {
			if i == idx {
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	p := *cfg.Faults
	p.Seed = p.Seed + int64(idx)*1000003
	return &p
}

// Run executes one cluster simulation.
func Run(cfg Config) (*Result, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	arrivals := cfg.Arrivals
	if arrivals == nil {
		var err error
		if arrivals, err = cfg.Spec.Arrivals(); err != nil {
			return nil, err
		}
	}

	// Resolve every function the stream references, sorted by name.
	fnByName := make(map[string]workload.Function, len(cfg.Functions))
	for _, f := range cfg.Functions {
		fnByName[f.Name] = f
	}
	seen := make(map[string]bool)
	var fnNames []string
	for _, a := range arrivals {
		if !seen[a.Fn] {
			seen[a.Fn] = true
			fnNames = append(fnNames, a.Fn)
		}
	}
	sort.Strings(fnNames)
	for _, name := range fnNames {
		if _, ok := fnByName[name]; ok {
			continue
		}
		f, err := workload.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		fnByName[name] = f
	}

	// --- Build the region: N hosts on one engine ---
	eng := sim.NewEngine()
	hosts := make([]*host, cfg.Hosts)
	var remote *store.Remote
	if cfg.Store != nil && cfg.Store.Tier != store.TierLocal {
		// One remote per region: per-chunk duplicate accounting across
		// hosts is exactly the cross-host dedup the report surfaces.
		remote = store.NewRemote(cfg.Store.Params)
	}
	// Every host's checker and recorder attach to the one shared engine,
	// so each sees the region-wide clock stream (per-host sim-event
	// counters are therefore region-global; DESIGN.md §13).
	for i := range hosts {
		name := fmt.Sprintf("host%d", i)
		if len(cfg.HostNames) > 0 {
			name = cfg.HostNames[i]
		}
		hv := vmm.NewHostOnEngine(eng, cfg.Device)
		ho := &host{idx: i, name: name, h: hv, fns: make(map[string]*hostFn, len(fnNames))}
		if p := hostPlan(&cfg, i); p != nil {
			ho.inj = faults.NewInjector(*p)
		}
		hv.Dev.SetFaults(ho.inj)
		var schemeObs []prefetch.Observer
		if cfg.Check {
			ho.chk = check.New(hv, ho.inj)
			schemeObs = append(schemeObs, ho.chk)
		}
		if cfg.Obs.Enabled() {
			ho.rec = obs.Attach(hv, *cfg.Obs)
			schemeObs = append(schemeObs, ho.rec)
		}
		if remote != nil {
			ho.cache = store.NewHostCache(eng, remote, ho.inj)
			if ho.chk != nil {
				ho.chk.AttachStore(ho.cache)
			}
			if ho.rec != nil {
				ho.cache.AddObserver(ho.rec)
			}
		}
		for _, fname := range fnNames {
			fn := fnByName[fname]
			pf := cfg.Scheme.New()
			img := vmm.BuildImage(fn, pf.RestoreConfig(0).ZeroOnFree)
			inode := hv.RegisterSnapshot(name+"/"+fn.Name+".snapmem", img)
			if ho.chk != nil {
				ho.chk.RegisterFileTags(inode, img.PageTags)
			}
			env := &prefetch.Env{
				Host:        hv,
				Fn:          fn,
				Image:       img,
				SnapInode:   inode,
				RecordTrace: fn.GenTrace(),
				InvokeTrace: fn.GenTrace(),
				Faults:      ho.inj,
				Observers:   schemeObs,
			}
			var bind *store.Binding
			if ho.cache != nil {
				man := store.BuildManifest(fn.Name, img.PageTags, remote.Params().ChunkPages)
				bind = ho.cache.Bind(man, cfg.Store.Policy, img.PageTags)
				inode.SetStager(bind)
				env.ChunkPlan = bind.Plan
			}
			ho.fns[fname] = &hostFn{
				fn: fn, pf: pf, env: env, img: img, inode: inode, bind: bind,
				warmExec: env.InvokeTrace.Summarize().TotalCompute,
			}
		}
		hosts[i] = ho
	}

	// --- Record phase: sequential per (host index, sorted function) ---
	var recErr error
	eng.Go("record", func(p *sim.Proc) {
		for _, ho := range hosts {
			for _, fname := range fnNames {
				hf := ho.fns[fname]
				if err := hf.pf.Record(p, hf.env); err != nil {
					recErr = fmt.Errorf("record %s/%s: %w", ho.name, fname, err)
					return
				}
			}
		}
	})
	eng.Run()
	if recErr != nil {
		return nil, recErr
	}
	for _, ho := range hosts {
		ho.h.Cache.DropCaches()
		ho.h.Dev.ResetStats()
		ho.h.Cache.SetMemLimit(cfg.CacheLimitPages)
	}
	if remote != nil {
		switch cfg.Store.Tier {
		case store.TierCold:
			for _, ho := range hosts {
				ho.cache.Drop()
			}
		case store.TierWarm:
			// Preload every host's chunk cache through the normal fetch
			// path, one proc per host, drained before dispatch begins.
			for _, ho := range hosts {
				ho := ho
				eng.Go(ho.name+"/store-preload", func(p *sim.Proc) {
					for _, fname := range fnNames {
						ho.fns[fname].bind.Preload(p)
					}
				})
			}
			eng.Run()
		}
	}

	// --- Invocation phase: front end dispatches the arrival stream ---
	rt, err := newRouter(cfg.Router)
	if err != nil {
		return nil, err
	}
	st := &runState{
		cfg:   cfg,
		eng:   eng,
		hosts: hosts,
		rt:    rt,
		res: &Result{
			Invocations: make([]*Invocation, len(arrivals)),
			Functions:   fnNames,
		},
		errSeq: -1,
	}
	eng.Go("frontend", func(p *sim.Proc) {
		st.start = p.Now()
		if cfg.Admission != nil {
			st.bkt = newBucket(*cfg.Admission, st.start)
		}
		for seq := range arrivals {
			a := arrivals[seq]
			if wait := st.start.Add(a.At).Sub(p.Now()); wait > 0 {
				p.Sleep(wait)
			}
			inv := &Invocation{
				Seq: seq, Tenant: a.Tenant, Fn: a.Fn, Class: a.Class,
				Arrived: a.At, Host: -1,
			}
			st.res.Invocations[seq] = inv
			if st.bkt != nil && !st.bkt.allow(p.Now()) {
				inv.Rejected = true
				st.res.Rejected++
				continue
			}
			st.res.Admitted++
			hi := st.rt.pick(hosts, a.Fn)
			ho := hosts[hi]
			inv.Host = hi
			ho.active++
			eng.Go(fmt.Sprintf("%s/%d", a.Tenant, a.Seq), func(p *sim.Proc) {
				st.serve(p, ho, inv)
			})
		}
	})
	eng.Run()
	if st.errVal != nil {
		return nil, fmt.Errorf("cluster: invocation %d: %w", st.errSeq, st.errVal)
	}

	// --- Teardown and reporting, host-index order throughout ---
	res := st.res
	for _, ho := range hosts {
		res.Cold += ho.cold
		res.Warm += ho.warm
		hs := HostStats{
			Name:           ho.name,
			Cold:           ho.cold,
			Warm:           ho.warm,
			SystemMemory:   units.PagesToBytes(ho.h.MM.SystemMemoryPages()),
			DeviceBytes:    ho.h.Dev.Stats().BytesRead,
			DeviceRequests: ho.h.Dev.Stats().Requests,
			Evictions:      ho.h.Cache.Evictions(),
			WarmEvicted:    ho.warmEvicted,
			Faults:         ho.inj.Report(),
		}
		// Drain the warm pool before checker quiescence: parked
		// sandboxes hold address spaces the checker expects released.
		for _, v := range ho.pool.drain() {
			v.vm.Shutdown()
		}
		if ho.rec != nil {
			hs.Obs = ho.rec.Finish()
		}
		if ho.chk != nil {
			cc := ho.chk.Counts()
			hs.CheckCounts = &cc
		}
		if ho.cache != nil {
			cs := ho.cache.Stats()
			hs.Store = &cs
		}
		res.Hosts = append(res.Hosts, hs)
	}
	if remote != nil {
		rs := remote.Stats()
		res.StoreRemote = &rs
	}
	if cfg.Check {
		if err := checkDigests(res); err != nil {
			return nil, err
		}
		for _, ho := range hosts {
			if err := ho.chk.Finish(); err != nil {
				return nil, fmt.Errorf("check %s: %w", ho.name, err)
			}
		}
	}
	return res, nil
}

// serve runs one admitted invocation on its chosen host: a warm hit
// replays only the function's compute time (restored memory is
// already mapped — every guest access would be a TLB hit, which the
// cost model charges zero for), while a cold start walks the full
// restore → prepare → invoke path of the single-host harness.
func (st *runState) serve(p *sim.Proc, ho *host, inv *Invocation) {
	hf := ho.fns[inv.Fn]
	if v := ho.pool.take(inv.Fn); v != nil {
		inv.Warm = true
		ho.warm++
		p.Sleep(hf.warmExec)
		inv.E2E = hf.warmExec
		ho.pool.serving--
		st.park(ho, v, p.Now())
	} else {
		ho.cold++
		vm, err := ho.h.Restore(p, fmt.Sprintf("%s/%s/%d", ho.name, inv.Tenant, inv.Seq),
			hf.fn, hf.img, hf.inode, hf.pf.RestoreConfig(0))
		if err != nil {
			st.fail(inv.Seq, err)
			ho.active--
			return
		}
		if hf.bind != nil {
			hf.bind.BeginRestore(p)
		}
		if err := hf.pf.PrepareVM(p, hf.env, vm); err != nil {
			st.fail(inv.Seq, err)
			ho.active--
			return
		}
		vm.MarkPrepared(p)
		stt, err := vm.Invoke(p, hf.env.InvokeTrace)
		if err != nil {
			st.fail(inv.Seq, err)
			ho.active--
			return
		}
		inv.E2E = stt.E2E
		hf.pf.FinishVM(hf.env, vm)
		if ho.chk != nil {
			// Digest before any teardown: the shadow page table is
			// consumed with the address space.
			inv.Digest = ho.chk.VMDone(vm)
		}
		st.parkOrShutdown(ho, &warmVM{vm: vm, fn: inv.Fn}, p.Now())
	}
	inv.Done = p.Now().Sub(st.start)
	ho.active--
}

// parkOrShutdown admits a fresh sandbox to the warm pool, evicting
// the oldest idle sandbox when the budget is full, or tears it down
// when keep-alive is off (or every budgeted slot is busy serving).
func (st *runState) parkOrShutdown(ho *host, v *warmVM, now sim.Time) {
	ka := st.cfg.KeepAlive
	if ka.Budget <= 0 {
		v.vm.Shutdown()
		return
	}
	if ho.pool.total() >= ka.Budget {
		ev := ho.pool.evictOldestIdle()
		if ev == nil {
			v.vm.Shutdown()
			return
		}
		ev.vm.Shutdown()
		ho.warmEvicted++
	}
	st.park(ho, v, now)
}

// park returns v to the idle pool and arms its idle-eviction timer.
func (st *runState) park(ho *host, v *warmVM, now sim.Time) {
	ho.pool.park(v, now)
	timeout := st.cfg.KeepAlive.IdleTimeout
	if timeout <= 0 {
		return
	}
	epoch := v.epoch
	st.eng.Schedule(timeout, func() {
		// Stale timer if the sandbox was taken, evicted, or re-parked
		// since this was armed.
		if v.idle && v.epoch == epoch && ho.pool.remove(v) {
			v.vm.Shutdown()
			ho.warmEvicted++
		}
	})
}

// checkDigests verifies every cold start of a function — on any host
// — converged to the same guest-visible memory, and records the
// per-function digests.
func checkDigests(res *Result) error {
	res.Digests = make(map[string]uint64, len(res.Functions))
	for _, inv := range res.Invocations {
		if inv.Rejected || inv.Warm {
			continue
		}
		want, ok := res.Digests[inv.Fn]
		if !ok {
			res.Digests[inv.Fn] = inv.Digest
			continue
		}
		if inv.Digest != want {
			return fmt.Errorf("check %s: invocation %d digest %016x != first digest %016x",
				inv.Fn, inv.Seq, inv.Digest, want)
		}
	}
	return nil
}
