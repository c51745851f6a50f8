package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"snapbpf/internal/cluster"
	"snapbpf/internal/experiments"
	"snapbpf/internal/faults"
	"snapbpf/internal/store"
	"snapbpf/internal/units"
	"snapbpf/internal/workload"
)

// hostConfig is one scheme/tier column of a burst workload.
type hostConfig struct {
	label  string
	scheme experiments.Scheme
	store  *store.Setup // nil: the snapshot sits on the local SSD
}

// regionConfig is one region of the region workload.
type regionConfig struct {
	router    cluster.RouterKind
	keepAlive int
}

// regionDef is a multi-host region serving an open-loop arrival stream:
// the first requests arrivals of a stream generated over horizon. A
// fixed count keeps the work of a run the same from seed to seed.
type regionDef struct {
	hosts     int
	requests  int
	horizon   time.Duration
	tenants   []workload.TenantSpec
	admission cluster.Admission
	configs   []regionConfig
}

// workloadDef is one named workload: either a burst grid (every
// function under every config, n concurrent cold starts per cell) or a
// region.
type workloadDef struct {
	name    string
	fns     []string
	n       int
	configs []hostConfig
	region  *regionDef
	// serial runs one cell at a time instead of one per CPU.
	serial bool
}

// workers is the width of the workload's cell pool.
func (w *workloadDef) workers() int {
	if w.serial {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// The workloads are sized so that one measured round takes a few
// seconds on two CPUs: a run then fits several rounds, and the median
// round is steady. The ten sandboxes of a SnapBPF cell finish together,
// so cold-start samples come in clusters of ten; the burst workloads
// take an odd number of functions so that the median falls inside a
// cluster rather than on the edge between two, where a seed could move
// it from one to the other.
var workloads = []workloadDef{
	// The paper's headline setting (Fig 3b): restore, prefetch,
	// page-cache dedup and the sim engine do the work; guest
	// allocation is light.
	{
		name: "burst-local",
		fns:  []string{"float", "json", "html"},
		n:    10,
		configs: []hostConfig{
			{"local", experiments.SchemeSnapBPF, nil},
			{"local", experiments.SchemeREAP, nil},
			{"local", experiments.SchemeFaaSnap, nil},
			{"local", experiments.SchemeLinuxRA, nil},
		},
	},
	// Allocation-heavy functions: the guest allocator and the
	// PV-mirror fault path do the work, eBPF and the store do none.
	// SnapBPF zero-fills anonymous pages where Linux-RA fetches them
	// from the snapshot.
	{
		name: "burst-alloc",
		fns:  []string{"matmul"},
		n:    10,
		configs: []hostConfig{
			{"local", experiments.SchemeSnapBPF, nil},
			{"local", experiments.SchemeLinuxRA, nil},
		},
	},
	// The only workload where the chunk cache and the remote work:
	// cold-tier cells fetch and insert, warm-tier cells hit, so a gain
	// on the miss path that costs the hit path shows.
	{
		name: "remote-cold",
		fns:  []string{"float", "json", "html"},
		n:    10,
		configs: []hostConfig{
			{"cold-wslazy", experiments.SchemeSnapBPF, &store.Setup{Tier: store.TierCold, Policy: store.PolicyWSLazy}},
			{"cold-demand", experiments.SchemeSnapBPF, &store.Setup{Tier: store.TierCold, Policy: store.PolicyDemand}},
			{"warm-demand", experiments.SchemeSnapBPF, &store.Setup{Tier: store.TierWarm, Policy: store.PolicyDemand}},
			{"cold-demand", experiments.SchemeLinuxRA, &store.Setup{Tier: store.TierCold, Policy: store.PolicyDemand}},
		},
	},
	// Routing, warm pools, admission and fault retries run only here.
	// Warm hits skip the restore stack, so a change that speeds cold
	// restores but slows dispatch shows. Arrivals are an open loop in
	// simulated time. The two regions run one after the other: side by
	// side, their heaps peak together at a point that moves with the
	// seed, and peak RSS varied by 15% between seeds.
	{
		name:   "region",
		serial: true,
		region: &regionDef{
			hosts:    4,
			requests: 60,
			horizon:  120 * time.Second,
			tenants: []workload.TenantSpec{
				{Name: "interactive", RatePerSec: 2, Arrival: workload.ArrivalPoisson,
					Funcs: []workload.FuncShare{{Name: "json", Weight: 1}, {Name: "html", Weight: 1}, {Name: "float", Weight: 1}},
					Class: workload.ClassLatency},
				{Name: "steady", RatePerSec: 1, Arrival: workload.ArrivalGamma, Shape: 2,
					Funcs: []workload.FuncShare{{Name: "pyaes", Weight: 1}, {Name: "float", Weight: 1}},
					Class: workload.ClassStandard},
				{Name: "bursty", RatePerSec: 1, Arrival: workload.ArrivalGamma, Shape: 0.5,
					Funcs: []workload.FuncShare{{Name: "json"}, {Name: "html"}, {Name: "pyaes"}}, Zipf: 1,
					Class: workload.ClassBatch},
			},
			admission: cluster.Admission{RatePerSec: 3.5, Burst: 8},
			configs: []regionConfig{
				{cluster.RouterAffinity, 2},
				{cluster.RouterRoundRobin, 0},
			},
		},
	},
}

func lookupWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// seededFunction returns suite function name with its trace seed moved
// by the benchmark seed: seed 1 is the paper suite itself.
func seededFunction(name string, seed int64) (workload.Function, error) {
	fn, err := workload.ByName(name)
	if err != nil {
		return fn, err
	}
	fn.Seed += 7919 * (seed - 1)
	return fn, nil
}

// cell is one unit of pool work: a single-host experiments.Run or a
// whole cluster.Run region.
type cell struct {
	name   string
	cost   int64 // relative host-time estimate; the pool runs large cells first
	fn     workload.Function
	scheme experiments.Scheme
	cfg    experiments.Config
	region *cluster.Config
}

// fnInputs is what the benchmark knows about a function's generated
// invocation: its pure compute time, a lower bound on any E2E, and
// its working-set size.
type fnInputs struct {
	compute time.Duration
	wsBytes int64
}

// plan is a workload's generated inputs.
type plan struct {
	def      *workloadDef
	cells    []cell // largest first
	fns      map[string]fnInputs
	arrivals []workload.Arrival
}

// cellCost tracks measured host time per cell: working-set pages cost
// linearly, and guest allocation costs grow with the square of the
// allocation size.
func cellCost(fn workload.Function, n int) int64 {
	return int64(n) * (20*fn.WSMiB + fn.AllocMiB*fn.AllocMiB)
}

// buildPlan generates every input of one workload from the seed.
func buildPlan(def *workloadDef, seed int64) (*plan, error) {
	p := &plan{def: def, fns: make(map[string]fnInputs)}
	addFn := func(name string) (workload.Function, error) {
		fn, err := seededFunction(name, seed)
		if err != nil {
			return fn, err
		}
		if _, ok := p.fns[name]; !ok {
			p.fns[name] = fnInputs{
				compute: fn.GenTrace().Summarize().TotalCompute,
				wsBytes: int64(units.PagesToBytes(fn.WSPages())),
			}
		}
		return fn, nil
	}
	for _, name := range def.fns {
		fn, err := addFn(name)
		if err != nil {
			return nil, err
		}
		for _, hc := range def.configs {
			p.cells = append(p.cells, cell{
				name:   fmt.Sprintf("%s/%s/%s", fn.Name, hc.scheme.Name, hc.label),
				cost:   cellCost(fn, def.n),
				fn:     fn,
				scheme: hc.scheme,
				cfg:    experiments.Config{N: def.n, Check: true, Store: hc.store},
			})
		}
	}
	if r := def.region; r != nil {
		spec := workload.ClusterSpec{Tenants: r.tenants, Horizon: r.horizon, Seed: seed}
		arrivals, err := spec.Arrivals()
		if err != nil {
			return nil, err
		}
		if len(arrivals) < r.requests {
			return nil, fmt.Errorf("%d arrivals in %v, want %d", len(arrivals), r.horizon, r.requests)
		}
		arrivals = arrivals[:r.requests]
		p.arrivals = arrivals
		var fns []workload.Function
		for _, name := range spec.FunctionNames() {
			fn, err := addFn(name)
			if err != nil {
				return nil, err
			}
			fns = append(fns, fn)
		}
		fp := faults.Light(seed)
		for _, rc := range r.configs {
			adm := r.admission
			p.cells = append(p.cells, cell{
				name: fmt.Sprintf("region/%s/ka=%d", rc.router, rc.keepAlive),
				region: &cluster.Config{
					Hosts:     r.hosts,
					Scheme:    cluster.Scheme{Name: experiments.SchemeSnapBPF.Name, New: experiments.SchemeSnapBPF.New},
					Router:    rc.router,
					Admission: &adm,
					KeepAlive: cluster.KeepAlive{Budget: rc.keepAlive},
					Arrivals:  arrivals,
					Functions: fns,
					Faults:    &fp,
					Check:     true,
				},
			})
		}
	}
	sort.SliceStable(p.cells, func(i, j int) bool { return p.cells[i].cost > p.cells[j].cost })
	return p, nil
}
