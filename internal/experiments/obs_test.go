package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"snapbpf/internal/faults"
	"snapbpf/internal/obs"
	"snapbpf/internal/workload"
)

// obsGoldenCells is the small fixed workload the golden observability
// documents are pinned over: three cells spanning the eBPF scheme, a
// userfaultfd baseline and the vanilla-readahead baseline.
func obsGoldenCells() []Cell {
	fn := tinyFn()
	return []Cell{
		{Fn: fn, Scheme: SchemeSnapBPF, Cfg: Config{N: 2}},
		{Fn: fn, Scheme: SchemeREAP, Cfg: Config{N: 1}},
		{Fn: fn, Scheme: SchemeLinuxRA, Cfg: Config{N: 1}},
	}
}

// obsDocs runs the golden cells at the given pool width with tracing,
// metrics and the invariant checker all armed, and renders the three
// output documents exactly as snapbpf-bench would.
func obsDocs(t *testing.T, parallel int) (traceDoc, metricsDoc, promDoc []byte) {
	t.Helper()
	var tcs []obs.TraceCell
	var mcs []obs.MetricsCell
	var reports []*obs.Report
	o := Options{
		Parallel: parallel,
		Check:    true,
		Obs:      &obs.Config{Trace: true, Metrics: true},
		ObsSink: func(name string, rep *obs.Report) {
			name = fmt.Sprintf("%03d %s", len(tcs), name)
			tcs = append(tcs, obs.TraceCell{Name: name, Report: rep})
			mcs = append(mcs, obs.MetricsCell{Name: name, Report: rep})
			reports = append(reports, rep)
		},
	}
	if _, err := RunCells(o, obsGoldenCells()); err != nil {
		t.Fatal(err)
	}
	if len(tcs) != 3 {
		t.Fatalf("sink delivered %d cells, want 3", len(tcs))
	}
	m, err := obs.BuildMetricsJSON(mcs)
	if err != nil {
		t.Fatal(err)
	}
	return obs.BuildTrace(tcs), m, obs.MergeMetrics(reports).Prometheus()
}

// Golden digests of the three observability documents over
// obsGoldenCells. The documents are megabytes, so the pin is their
// SHA-256 — still a byte-level contract: any serialization, ordering
// or instrumentation change shows up as a digest change and must be
// re-pinned deliberately (rerun with -run TestObsGolden -v to get the
// new values).
const (
	goldenObsTraceSHA   = "8d21eb06788133d401575502a6e18eea1afe4eeea142368727ab079be4e24716"
	goldenObsMetricsSHA = "77ba81b2cf91efd20453eb137c7be993d17abf5fa2cfb90bb341bdf3f263f8d1"
	goldenObsPromSHA    = "e7b32b654de672f21a2fbb468d8cd54d6881375813e9790876fdd98741f3f056"
)

func sha(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// TestObsGoldenByteIdentical is the golden + determinism satellite:
// the trace JSON, metrics JSON and Prometheus text over a fixed
// workload are byte-identical between a serial and a 4-worker run,
// validate against the trace schema, and match the pinned digests.
func TestObsGoldenByteIdentical(t *testing.T) {
	serialTrace, serialMetrics, serialProm := obsDocs(t, 1)
	parTrace, parMetrics, parProm := obsDocs(t, 4)

	if !bytes.Equal(serialTrace, parTrace) {
		t.Errorf("trace differs between -parallel 1 (%d bytes) and -parallel 4 (%d bytes)",
			len(serialTrace), len(parTrace))
	}
	if !bytes.Equal(serialMetrics, parMetrics) {
		t.Errorf("metrics JSON differs between -parallel 1 and -parallel 4")
	}
	if !bytes.Equal(serialProm, parProm) {
		t.Errorf("prometheus text differs between -parallel 1 and -parallel 4")
	}
	if err := obs.ValidateTrace(serialTrace); err != nil {
		t.Errorf("trace schema: %v", err)
	}

	if got := sha(serialTrace); got != goldenObsTraceSHA {
		t.Errorf("trace digest = %s, pinned %s (%d bytes)", got, goldenObsTraceSHA, len(serialTrace))
	}
	if got := sha(serialMetrics); got != goldenObsMetricsSHA {
		t.Errorf("metrics digest = %s, pinned %s (%d bytes)", got, goldenObsMetricsSHA, len(serialMetrics))
	}
	if got := sha(serialProm); got != goldenObsPromSHA {
		t.Errorf("prometheus digest = %s, pinned %s (%d bytes)", got, goldenObsPromSHA, len(serialProm))
	}

	// Semantic spot checks so a digest mismatch has context: 4
	// sandboxes restore and invoke across the 3 cells, and the trace
	// names its phases.
	for _, want := range []string{`"name":"restore"`, `"name":"invoke"`, `"name":"ws-load"`, `"name":"io"`} {
		if !bytes.Contains(serialTrace, []byte(want)) {
			t.Errorf("trace missing %s", want)
		}
	}
	// 4 cold starts across the 3 cells, plus one record sandbox each
	// for SnapBPF and REAP (Linux-RA records without one).
	if !strings.Contains(string(serialProm), "snapbpf_invokes_total 6\n") {
		t.Errorf("aggregate prometheus missing snapbpf_invokes_total 6")
	}
	if !strings.Contains(string(serialProm), "snapbpf_restores_total 6\n") {
		t.Errorf("aggregate prometheus missing snapbpf_restores_total 6")
	}
}

// TestObsMetamorphicRunInvariance is the metamorphic satellite at cell
// granularity: arming observability must not change any measured
// quantity, the guest-memory digest, or what the fault injector did —
// across a healthy run and light/heavy fault plans.
func TestObsMetamorphicRunInvariance(t *testing.T) {
	fn := tinyFn()
	plans := map[string]func() *faults.Plan{
		"healthy": func() *faults.Plan { return nil },
		"light":   func() *faults.Plan { p := faults.Light(3); return &p },
		"heavy":   func() *faults.Plan { p := faults.Heavy(3); return &p },
	}
	for _, s := range []Scheme{SchemeSnapBPF, SchemeREAP} {
		for label, plan := range plans {
			s, label, plan := s, label, plan
			t.Run(s.Name+"/"+label, func(t *testing.T) {
				base := Config{N: 2, Check: true, Faults: plan()}
				withObs := base
				withObs.Faults = plan()
				withObs.Obs = &obs.Config{Trace: true, Metrics: true}

				r1, err := Run(fn, s, base)
				if err != nil {
					t.Fatal(err)
				}
				r2, err := Run(fn, s, withObs)
				if err != nil {
					t.Fatal(err)
				}
				if r1.Digest != r2.Digest {
					t.Errorf("digest changed: %x -> %x", r1.Digest, r2.Digest)
				}
				if r1.MeanE2E != r2.MeanE2E || r1.MaxE2E != r2.MaxE2E {
					t.Errorf("E2E changed: %v/%v -> %v/%v", r1.MeanE2E, r1.MaxE2E, r2.MeanE2E, r2.MaxE2E)
				}
				for i := range r1.E2E {
					if r1.E2E[i] != r2.E2E[i] {
						t.Errorf("E2E[%d] changed: %v -> %v", i, r1.E2E[i], r2.E2E[i])
					}
				}
				if r1.SystemMemory != r2.SystemMemory {
					t.Errorf("memory changed: %v -> %v", r1.SystemMemory, r2.SystemMemory)
				}
				if r1.DeviceBytes != r2.DeviceBytes || r1.DeviceRequests != r2.DeviceRequests {
					t.Errorf("device traffic changed: %d/%d -> %d/%d",
						r1.DeviceBytes, r1.DeviceRequests, r2.DeviceBytes, r2.DeviceRequests)
				}
				if r1.Faults != r2.Faults {
					t.Errorf("fault report changed: %+v -> %+v", r1.Faults, r2.Faults)
				}
				if *r1.CheckCounts != *r2.CheckCounts {
					t.Errorf("checker tally changed: %+v -> %+v", *r1.CheckCounts, *r2.CheckCounts)
				}
				if r2.Obs == nil || r2.Obs.Metrics() == nil {
					t.Error("observability armed but no report returned")
				}
			})
		}
	}
}

// TestObsExperimentInvariance repeats the metamorphic check at
// experiment granularity: a whole figure's rendered table is
// byte-identical with and without observability armed.
func TestObsExperimentInvariance(t *testing.T) {
	base := Options{Functions: []workload.Function{tinyFn()}, Check: true}
	withObs := base
	withObs.Obs = &obs.Config{Trace: true, Metrics: true}
	withObs.ObsSink = func(name string, rep *obs.Report) {}

	t1, err := Fig3a(base)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Fig3a(withObs)
	if err != nil {
		t.Fatal(err)
	}
	if t1.CSV() != t2.CSV() {
		t.Errorf("fig3a CSV changed when observability was armed:\n--- without ---\n%s--- with ---\n%s",
			t1.CSV(), t2.CSV())
	}
}

// mustCounter reads a counter from the snapshot, failing the test if
// the metric does not exist (catching name drift).
func mustCounter(t *testing.T, s *obs.Snapshot, name string) int64 {
	t.Helper()
	v, ok := s.Counter(name)
	if !ok {
		t.Fatalf("counter %s not exported", name)
	}
	return v
}

// TestObsConservation is the conservation satellite: for every scheme
// family, the recorder's counters must reconcile exactly against the
// checker's independent shadow tally (internal/check.Counts) and the
// fault injector's report — three observers of the same event stream.
func TestObsConservation(t *testing.T) {
	fn := tinyFn()
	for _, s := range []Scheme{SchemeSnapBPF, SchemeREAP, SchemeFaaSnap, SchemeLinuxRA} {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			plan := faults.Light(5)
			res, err := Run(fn, s, Config{
				N:      2,
				Check:  true,
				Faults: &plan,
				Obs:    &obs.Config{Metrics: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Obs == nil || res.CheckCounts == nil {
				t.Fatal("missing observability report or checker tally")
			}
			m := res.Obs.Metrics()
			cc := *res.CheckCounts
			c := func(name string) int64 { return mustCounter(t, m, name) }

			eq := func(label string, got, want int64) {
				t.Helper()
				if got != want {
					t.Errorf("%s: metrics say %d, shadow says %d", label, got, want)
				}
			}
			eq("io submissions",
				c("snapbpf_io_submissions_sync_total")+c("snapbpf_io_submissions_readahead_total"),
				cc.IOsSubmitted)
			eq("io completions", c("snapbpf_io_completions_total"), cc.IOsCompleted)
			eq("io failures", c("snapbpf_io_failures_total"), cc.FailedIOs)
			eq("cache inserts",
				c("snapbpf_cache_inserts_demand_total")+c("snapbpf_cache_inserts_readahead_total"),
				cc.PageInserts)
			eq("readahead calls", c("snapbpf_readahead_calls_total"), cc.ReadaheadCalls)
			eq("readahead pages", c("snapbpf_readahead_pages_total"), cc.ReadaheadPages)
			eq("file maps", c("snapbpf_file_pages_mapped_total"), cc.FileMaps)
			eq("file unmaps", c("snapbpf_file_pages_unmapped_total"), cc.FileUnmaps)
			eq("faults",
				c("snapbpf_faults_minor_total")+c("snapbpf_faults_file_total")+
					c("snapbpf_faults_zerofill_total")+c("snapbpf_faults_cow_total")+
					c("snapbpf_faults_uffd_total"),
				cc.Faults)
			eq("cow breaks", c("snapbpf_faults_cow_total"), cc.CoWBreaks)
			eq("guest accesses", c("snapbpf_guest_accesses_total"), cc.GuestAccesses)
			eq("records", c("snapbpf_records_total"), cc.Records)
			eq("prepares", c("snapbpf_scheme_prepares_total"), cc.Prepares)
			eq("degraded", c("snapbpf_degraded_total"), cc.Degraded)
			eq("prefetch groups", c("snapbpf_prefetch_groups_total"), cc.PrefetchGroups)
			eq("prefetch pages", c("snapbpf_prefetch_pages_total"), cc.PrefetchPages)
			eq("offset loads", c("snapbpf_offset_loads_total"), cc.OffsetLoads)

			// And against the fault injector's own report.
			eq("retries vs failed IOs", cc.FailedIOs, res.Faults.Retries)
			eq("fallbacks vs degraded", cc.Degraded, res.Faults.Fallbacks)

			// Lifecycle counters reconcile against the cell shape:
			// every restore is invoked exactly once, and schemes with
			// a record sandbox add one on top of the N cold starts.
			eq("invokes vs restores", c("snapbpf_invokes_total"), c("snapbpf_restores_total"))
			if inv := c("snapbpf_invokes_total"); inv < int64(res.N) || inv > int64(res.N)+1 {
				t.Errorf("invokes = %d, want %d or %d", inv, res.N, res.N+1)
			}
		})
	}
}

// TestObsDisabledLeavesNoReport pins the opt-in contract: without a
// config no report is allocated; metrics-only recording produces
// metrics but zero trace events.
func TestObsDisabledLeavesNoReport(t *testing.T) {
	fn := tinyFn()
	res, err := Run(fn, SchemeSnapBPF, Config{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs != nil {
		t.Error("observability report allocated without a config")
	}
	res, err = Run(fn, SchemeSnapBPF, Config{N: 1, Obs: &obs.Config{Metrics: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs == nil || res.Obs.Metrics() == nil {
		t.Fatal("metrics requested but not returned")
	}
	if res.Obs.TraceEventCount() != 0 {
		t.Errorf("tracing off but %d events recorded", res.Obs.TraceEventCount())
	}
}
