package experiments

import (
	"fmt"
	"time"

	"snapbpf/internal/cluster"
	"snapbpf/internal/workload"
)

// ClusterParams tunes the cluster experiment: region size, the router
// and keep-alive sweep, admission control, and the workload spec. The
// zero value (reached via Options.Cluster == nil) is the golden
// 4-host/3-tenant configuration the byte-pinned CSV and CI cmp runs
// use.
type ClusterParams struct {
	// Hosts is the region size (default 4). HostNames optionally
	// labels hosts; labels never affect behaviour.
	Hosts     int
	HostNames []string

	// Routers and Budgets define the sweep: one cell per (router,
	// keep-alive budget) pair. Defaults: every router × {0, 2}.
	Routers []cluster.RouterKind
	Budgets []int

	// IdleTimeout applies to every nonzero budget (default: keep
	// until end of run).
	IdleTimeout time.Duration

	// Admission arms the front-end token bucket (default 2/s, burst
	// 4 — the golden workload offers ~2.6/s, so a visible but small
	// fraction is rejected).
	Admission *cluster.Admission

	// Spec overrides the golden workload.
	Spec *workload.ClusterSpec
}

func (o Options) clusterParams() ClusterParams {
	var p ClusterParams
	if o.Cluster != nil {
		p = *o.Cluster
	}
	if p.Hosts == 0 {
		p.Hosts = 4
	}
	if p.Routers == nil {
		p.Routers = cluster.Routers()
	}
	if p.Budgets == nil {
		p.Budgets = []int{0, 2}
	}
	if p.Admission == nil {
		p.Admission = &cluster.Admission{RatePerSec: 2, Burst: 4}
	}
	if p.Spec == nil {
		s := GoldenClusterSpec()
		p.Spec = &s
	}
	return p
}

// GoldenClusterSpec is the fixed 4-host/3-tenant workload behind the
// cluster experiment's byte-pinned golden CSV: an interactive tenant
// (Poisson, latency class), a steady tenant (smooth Gamma), and a
// bursty tenant (Gamma shape 0.5, Zipf function popularity), all over
// small functions so the experiment stays CI-sized.
func GoldenClusterSpec() workload.ClusterSpec {
	return workload.ClusterSpec{
		Seed:    2,
		Horizon: 12 * time.Second,
		Tenants: []workload.TenantSpec{
			{Name: "interactive", RatePerSec: 1.2, Arrival: workload.ArrivalPoisson,
				Funcs: []workload.FuncShare{{Name: "json", Weight: 3}, {Name: "html", Weight: 1}},
				Class: workload.ClassLatency},
			{Name: "steady", RatePerSec: 0.8, Arrival: workload.ArrivalGamma, Shape: 2,
				Funcs: []workload.FuncShare{{Name: "pyaes", Weight: 1}},
				Class: workload.ClassStandard},
			{Name: "bursty", RatePerSec: 0.8, Arrival: workload.ArrivalGamma, Shape: 0.5,
				Funcs: []workload.FuncShare{{Name: "html"}, {Name: "json"}}, Zipf: 1,
				Class: workload.ClassBatch},
		},
	}
}

// Cluster runs the region-scale experiment: the golden workload
// dispatched across Hosts hosts under every (router, keep-alive
// budget) cell, reporting per-class and per-tenant latency
// percentiles, cold/warm/rejected counts, fairness, and storage
// traffic. This is the figure family the single-host paper cannot
// produce: cold-start latency vs routing policy vs warm-pool budget.
func Cluster(o Options) (*Table, error) {
	p := o.clusterParams()
	arrivals, err := p.Spec.Arrivals()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "cluster",
		Title: fmt.Sprintf("Region of %d hosts: routing x keep-alive under the golden multi-tenant workload", p.Hosts),
		Note:  "SnapBPF on every host; rej = admission drops; fair = Jain index over per-tenant means",
		Columns: []string{"Config", "Scope", "N", "cold", "warm", "rej",
			"p50 (s)", "p95 (s)", "p99 (s)", "cold mean (s)", "cold p99 (s)", "fair", "device MiB"},
	}
	type cell struct {
		router cluster.RouterKind
		budget int
	}
	var cells []cell
	for _, r := range p.Routers {
		for _, b := range p.Budgets {
			cells = append(cells, cell{r, b})
		}
	}
	results := make([]*cluster.Result, len(cells))
	err = o.runJobs(len(cells), func(i int) error {
		c := cells[i]
		res, err := cluster.Run(cluster.Config{
			Hosts:     p.Hosts,
			HostNames: p.HostNames,
			Scheme:    SchemeSnapBPF,
			Router:    c.router,
			Admission: p.Admission,
			KeepAlive: cluster.KeepAlive{Budget: c.budget, IdleTimeout: p.IdleTimeout},
			Arrivals:  arrivals,
			Faults:    o.Faults,
			Check:     o.Check,
			Obs:       o.Obs,
			Store:     o.Store,
		})
		if err != nil {
			return fmt.Errorf("cluster %s/ka=%d: %w", c.router, c.budget, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		res := results[i]
		label := fmt.Sprintf("%s/ka=%d", c.router, c.budget)
		o.progress("cluster %-18s admitted=%d cold=%d warm=%d rejected=%d",
			label, res.Admitted, res.Cold, res.Warm, res.Rejected)
		clusterRows(t, label, res)
		for _, hs := range res.Hosts {
			o.sink(fmt.Sprintf("cluster/%s/%s", label, hs.Name), hs.Obs)
		}
	}
	return t, nil
}

// clusterRows appends one cell's rows: the "all" aggregate, then one
// row per SLO class and per tenant, all in sorted-key order.
func clusterRows(t *Table, label string, res *cluster.Result) {
	addScope := func(scope string, keep func(*cluster.Invocation) bool, all bool) {
		var n, cold, warm, rej int
		for _, inv := range res.Invocations {
			if keep != nil && !keep(inv) {
				continue
			}
			if inv.Rejected {
				rej++
				continue
			}
			n++
			if inv.Warm {
				warm++
			} else {
				cold++
			}
		}
		lat := res.Latency(keep)
		coldLat := res.ColdLatency(keep)
		fair, dev := "", ""
		if all {
			fair = fmt.Sprintf("%.3f", res.Fairness())
			dev = fmt.Sprintf("%.1f", float64(res.DeviceBytes())/(1<<20))
		}
		t.AddRow(label, scope,
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", cold), fmt.Sprintf("%d", warm),
			fmt.Sprintf("%d", rej),
			secs(lat.P50), secs(lat.P95), secs(lat.P99),
			secs(coldLat.Mean), secs(coldLat.P99),
			fair, dev)
	}
	addScope("all", nil, true)
	for _, cl := range res.Classes() {
		cl := cl
		addScope("class:"+string(cl), func(inv *cluster.Invocation) bool { return inv.Class == cl }, false)
	}
	for _, tn := range res.Tenants() {
		tn := tn
		addScope("tenant:"+tn, func(inv *cluster.Invocation) bool { return inv.Tenant == tn }, false)
	}
}
