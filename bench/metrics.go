package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"snapbpf/internal/check"
	"snapbpf/internal/experiments"
	"snapbpf/internal/faults"
	"snapbpf/internal/obs"
)

// metric is one reported value. Clock is "host" for wall-clock and
// process measurements and "sim" for simulated quantities, which a
// deterministic simulator reproduces exactly.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock"`
	Note  string  `json:"note,omitempty"`
}

type metrics map[string]metric

func (m metrics) host(name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit, Clock: "host"}
}

func (m metrics) sim(name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit, Clock: "sim"}
}

// gated lists the end-to-end metrics BENCHMARK.json bounds. Each is
// reported on every workload and is never zero.
var gated = []string{
	"host_s", "invocations_per_s", "peak_rss_mib", "setup_s",
	"cold_p50_ms", "e2e_sum_s", "mem_mib", "device_mib",
}

const mib = 1 << 20

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tailRank returns the 1-based nearest rank of the highest percentile
// that still has ten samples above it, n-10; ok is false when n <= 10.
func tailRank(n int) (rank int, ok bool) {
	return n - 10, n > 10
}

// p50Rank is the 1-based nearest rank of the median.
func p50Rank(n int) int { return (n + 1) / 2 }

// latency adds name_p50_ms and, where defined, name_tail_ms with the
// sample count and percentile noted beside it.
func (m metrics) latency(name string, ds []time.Duration) {
	if len(ds) == 0 {
		return
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	m.sim(name+"_p50_ms", ms(s[p50Rank(n)-1]), "ms")
	if r, ok := tailRank(n); ok {
		m[name+"_tail_ms"] = metric{Value: ms(s[r-1]), Unit: "ms", Clock: "sim",
			Note: fmt.Sprintf("n=%d p%.1f", n, 100*float64(r)/float64(n))}
	}
}

// tally is what one round did, summed over its cells.
type tally struct {
	snapCold    []time.Duration // SnapBPF cold-start E2E
	requests    []time.Duration // region requests, arrival to done
	e2eSum      time.Duration
	memSum      float64
	memN        int
	deviceBytes int64
	remoteBytes int64
	wsBytes     int64 // Σ cold starts × working-set bytes
	offered     int   // invocations offered, refused ones included
	completed   int   // invocations run to completion
	refused     int
	failed      int // invocations of cells that returned an error
	violations  int
	faults      faults.Report
	cold, warm  int
	warmEvicted int
	obs         []*obs.Report
	simEvents   int64 // engine events; one count per engine
}

func tallyRound(p *plan, outs []outcome) *tally {
	t := &tally{}
	for i, o := range outs {
		c := &p.cells[i]
		if o.err != nil {
			var ce *check.Error
			if errors.As(o.err, &ce) {
				t.violations += len(ce.Violations) + ce.Dropped
			}
			if c.region != nil {
				t.offered += len(p.arrivals)
				t.failed += len(p.arrivals)
			} else {
				t.offered += c.cfg.N
				t.failed += c.cfg.N
			}
			continue
		}
		if r := o.run; r != nil {
			for _, e := range r.E2E {
				t.e2eSum += e
				if r.Scheme == experiments.SchemeSnapBPF.Name {
					t.snapCold = append(t.snapCold, e)
				}
			}
			t.memSum += float64(r.SystemMemory)
			t.memN++
			t.deviceBytes += r.DeviceBytes
			if r.StoreRemote != nil {
				t.remoteBytes += r.StoreRemote.Bytes
			}
			t.wsBytes += int64(r.N) * p.fns[r.Function].wsBytes
			t.offered += r.N
			t.completed += r.N
			t.faults.Add(r.Faults)
			if r.Obs != nil {
				t.obs = append(t.obs, r.Obs)
				t.simEvents += simEvents(r.Obs)
			}
			continue
		}
		r := o.region
		for _, inv := range r.Invocations {
			if inv.Rejected {
				continue
			}
			t.e2eSum += inv.E2E
			t.requests = append(t.requests, inv.Done-inv.Arrived)
			if !inv.Warm {
				t.snapCold = append(t.snapCold, inv.E2E)
				t.wsBytes += p.fns[inv.Fn].wsBytes
			}
		}
		for _, hs := range r.Hosts {
			t.memSum += float64(hs.SystemMemory)
			t.memN++
			t.deviceBytes += hs.DeviceBytes
			t.faults.Add(hs.Faults)
			t.warmEvicted += hs.WarmEvicted
			if hs.Obs != nil {
				t.obs = append(t.obs, hs.Obs)
			}
		}
		// Hosts of a region share one engine and every host's recorder
		// counts all of its events, so one host's count is the region's.
		if len(r.Hosts) > 0 && r.Hosts[0].Obs != nil {
			t.simEvents += simEvents(r.Hosts[0].Obs)
		}
		t.offered += len(r.Invocations)
		t.completed += r.Admitted
		t.refused += r.Rejected
		t.cold += r.Cold
		t.warm += r.Warm
	}
	return t
}

func simEvents(r *obs.Report) int64 {
	v, _ := r.Metrics().Counter("snapbpf_sim_events_scheduled_total")
	return v
}

// simMetrics computes the simulated-clock end-to-end metrics of one
// round. A metric that does not apply to the workload is left out.
func simMetrics(p *plan, outs []outcome) metrics {
	t := tallyRound(p, outs)
	m := metrics{}
	m.latency("cold", t.snapCold)
	m.latency("req", t.requests)
	m.sim("e2e_sum_s", t.e2eSum.Seconds(), "s")
	if t.memN > 0 {
		m.sim("mem_mib", t.memSum/float64(t.memN)/mib, "MiB")
	}
	m.sim("device_mib", float64(t.deviceBytes)/mib, "MiB")
	if hasStore(p) {
		m.sim("remote_mib", float64(t.remoteBytes)/mib, "MiB")
	}
	m["failed_frac"] = metric{
		Value: float64(t.failed+t.refused+t.violations) / float64(max(t.offered, 1)),
		Unit:  "ratio",
		Clock: "sim",
		Note:  fmt.Sprintf("ops=%d errors=%d refused=%d violations=%d", t.offered, t.failed, t.refused, t.violations),
	}
	return m
}

func hasStore(p *plan) bool {
	for _, hc := range p.def.configs {
		if hc.store != nil {
			return true
		}
	}
	return false
}

// sameMetrics reports the first metric whose value differs.
func sameMetrics(want, got metrics) error {
	for name, w := range want {
		if g, ok := got[name]; !ok || g.Value != w.Value {
			return fmt.Errorf("simulated metric %s: got %v, want %v", name, g.Value, w.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("unexpected simulated metric %s", name)
		}
	}
	return nil
}

// verify checks one round's outputs: no cell failed (a checker
// violation or a digest mismatch inside a run fails its cell), every
// invocation took at least its function's compute time, every region
// accounts for each arrival, and every scheme, tier and host left the
// same guest-visible memory for a function.
func verify(p *plan, outs []outcome) error {
	var errs []error
	digest := make(map[string]uint64)
	sameDigest := func(where, fn string, d uint64) {
		if want, ok := digest[fn]; !ok {
			digest[fn] = d
		} else if d != want {
			errs = append(errs, fmt.Errorf("%s: %s guest-memory digest %016x, want %016x", where, fn, d, want))
		}
	}
	for i, o := range outs {
		c := &p.cells[i]
		if o.err != nil {
			errs = append(errs, o.err)
			continue
		}
		if r := o.run; r != nil {
			if len(r.E2E) != c.cfg.N {
				errs = append(errs, fmt.Errorf("%s: %d E2E samples for %d sandboxes", c.name, len(r.E2E), c.cfg.N))
			}
			for vm, e := range r.E2E {
				if floor := p.fns[r.Function].compute; e < floor {
					errs = append(errs, fmt.Errorf("%s: vm%d E2E %v below compute time %v", c.name, vm, e, floor))
				}
			}
			sameDigest(c.name, r.Function, r.Digest)
			continue
		}
		r := o.region
		if n := len(r.Invocations); n != len(p.arrivals) || r.Admitted+r.Rejected != n || r.Cold+r.Warm != r.Admitted {
			errs = append(errs, fmt.Errorf("%s: %d arrivals, %d invocations, %d admitted + %d rejected, %d cold + %d warm",
				c.name, len(p.arrivals), n, r.Admitted, r.Rejected, r.Cold, r.Warm))
		}
		for _, inv := range r.Invocations {
			if inv.Rejected {
				continue
			}
			if floor := p.fns[inv.Fn].compute; inv.E2E < floor || inv.Done-inv.Arrived < inv.E2E {
				errs = append(errs, fmt.Errorf("%s: request %d: E2E %v, arrival to done %v, compute %v",
					c.name, inv.Seq, inv.E2E, inv.Done-inv.Arrived, floor))
			}
		}
		for _, fn := range r.Functions {
			if d, ok := r.Digests[fn]; ok {
				sameDigest(c.name, fn, d)
			}
		}
	}
	return errors.Join(errs...)
}

// obsLayerMetrics derives the per-layer counters of a traced round from
// its obs reports and run results.
func obsLayerMetrics(t *tally, m metrics) {
	s := obs.MergeMetrics(t.obs)
	counter := func(name string) float64 {
		v, _ := s.Counter("snapbpf_" + name)
		return float64(v)
	}
	hist := func(name string) obs.Hist {
		h, _ := s.Histogram("snapbpf_" + name)
		return h
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	nsToMs := func(ns int64) float64 { return float64(ns) / 1e6 }
	nsToUs := func(ns int64) float64 { return float64(ns) / 1e3 }

	m.sim("sim.events", float64(t.simEvents), "count")
	m.sim("vmm.restore_ms_sum", nsToMs(hist("restore_ns").Sum), "ms")
	m.sim("vmm.prepare_ms_sum", nsToMs(hist("prepare_ns").Sum), "ms")
	m.sim("vmm.exec_ms_sum", nsToMs(hist("invoke_exec_ns").Sum), "ms")
	m.sim("prefetch.groups", counter("prefetch_groups_total"), "count")
	m.sim("prefetch.pages", counter("prefetch_pages_total"), "count")
	m.sim("prefetch.offset_load_ms_sum", nsToMs(hist("offset_load_ns").Sum), "ms")
	m.sim("blockdev.requests", counter("io_requests_total"), "count")
	m.sim("blockdev.read_mib", counter("io_submitted_bytes_total")/mib, "MiB")
	m.sim("blockdev.io_latency_p50_us", nsToUs(hist("io_latency_ns").P50), "us")
	m.sim("blockdev.io_latency_p99_us", nsToUs(hist("io_latency_ns").P99), "us")
	m.sim("blockdev.ncq_inflight_p99", float64(hist("ncq_inflight").P99), "count")
	m.sim("blockdev.read_amp", ratio(float64(t.deviceBytes), float64(t.wsBytes)), "ratio")
	m.sim("pagecache.inserts_demand", counter("cache_inserts_demand_total"), "count")
	m.sim("pagecache.inserts_readahead", counter("cache_inserts_readahead_total"), "count")
	m.sim("pagecache.evictions", counter("cache_evictions_total"), "count")
	m.sim("pagecache.dedup_ratio", ratio(counter("file_pages_mapped_shared_total"), counter("file_pages_mapped_total")), "ratio")
	m.sim("kvm.faults_file", counter("faults_file_total"), "count")
	m.sim("kvm.faults_zerofill", counter("faults_zerofill_total"), "count")
	m.sim("kvm.faults_cow", counter("faults_cow_total"), "count")
	m.sim("kvm.faults_uffd", counter("faults_uffd_total"), "count")
	m.sim("kvm.fault_service_p99_us", nsToUs(hist("fault_service_ns").P99), "us")
	m.sim("guest.mirror_accesses", counter("guest_mirror_accesses_total"), "count")
	m.sim("hostmm.anon_installs", counter("anon_installs_total"), "count")
	fetches, hits := counter("store_fetches_total"), counter("store_hits_total")
	m.sim("store.fetches", fetches, "count")
	m.sim("store.fetch_mib", counter("store_fetch_bytes_total")/mib, "MiB")
	m.sim("store.hits", hits, "count")
	m.sim("store.hit_ratio", ratio(hits, hits+fetches), "ratio")
	m.sim("store.dedup_hits", counter("store_dedup_hits_total"), "count")
	m.sim("store.evictions", counter("store_evictions_total"), "count")
	m.sim("store.retries", counter("store_fetch_retries_total"), "count")
	m.sim("cluster.cold", float64(t.cold), "count")
	m.sim("cluster.warm", float64(t.warm), "count")
	m.sim("cluster.warm_ratio", ratio(float64(t.warm), float64(t.cold+t.warm)), "ratio")
	m.sim("cluster.warm_evicted", float64(t.warmEvicted), "count")
	m.sim("cluster.rejected", float64(t.refused), "count")
	m.sim("faults.injected", float64(t.faults.Injected()), "count")
	m.sim("faults.retries", float64(t.faults.Retries), "count")
	m.sim("faults.fallbacks", float64(t.faults.Fallbacks), "count")
	m.sim("check.violations", float64(t.violations), "count")
}
