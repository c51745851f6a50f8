package obs

import (
	"bytes"
	"strings"
	"testing"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/costmodel"
	"snapbpf/internal/faults"
	"snapbpf/internal/hostmm"
	"snapbpf/internal/kprobe"
	"snapbpf/internal/pagecache"
	"snapbpf/internal/sim"
	"snapbpf/internal/vmm"
)

func TestConfigEnabled(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Error("nil config reports enabled")
	}
	if (&Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	if !(&Config{Trace: true}).Enabled() || !(&Config{Metrics: true}).Enabled() {
		t.Error("trace-only / metrics-only configs report disabled")
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		unit, v int64
		want    int
	}{
		{1000, 0, 0},
		{1000, 1000, 0},
		{1000, 1001, 1},
		{1000, 2000, 1},
		{1000, 2001, 2},
		{1000, 4000, 2},
		{1, 1, 0},
		{1, 2, 1},
		{1, 3, 2},
		{1, 1 << 40, histBuckets},
		{1000, 1 << 62, histBuckets},
	}
	for _, c := range cases {
		if got := bucketOf(c.unit, c.v); got != c.want {
			t.Errorf("bucketOf(%d, %d) = %d, want %d", c.unit, c.v, got, c.want)
		}
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h histogram
	if got := h.percentile(1000, 500); got != 0 {
		t.Errorf("empty histogram p50 = %d", got)
	}
	h.observe(1000, 500)
	if got := h.percentile(1000, 990); got != 500 {
		t.Errorf("single-observation p99 = %d, want clamped max 500", got)
	}
	// 100 observations of 1µs and one of ~1s: p50 stays in the first
	// bucket, p99 lands near the outlier, and nothing exceeds max.
	h = histogram{}
	for i := 0; i < 100; i++ {
		h.observe(1000, 1000)
	}
	h.observe(1000, 1_000_000_000)
	if got := h.percentile(1000, 500); got != 1000 {
		t.Errorf("p50 = %d, want 1000", got)
	}
	if got := h.percentile(1000, 999); got > h.max {
		t.Errorf("p99.9 = %d exceeds max %d", got, h.max)
	}
	// Overflow bucket reports the true max.
	h = histogram{}
	h.observe(1, 1<<50)
	if got := h.percentile(1, 500); got != 1<<50 {
		t.Errorf("overflow p50 = %d, want %d", got, int64(1)<<50)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b histogram
	a.observe(1000, 100)
	a.observe(1000, 5000)
	b.observe(1000, 7)
	b.observe(1000, 90000)
	a.merge(&b)
	if a.n != 4 || a.sum != 95107 || a.min != 7 || a.max != 90000 {
		t.Errorf("merge: n=%d sum=%d min=%d max=%d", a.n, a.sum, a.min, a.max)
	}
	var empty histogram
	a.merge(&empty) // no-op
	if a.n != 4 {
		t.Errorf("merging empty changed n to %d", a.n)
	}
}

func TestSnapshotAndPrometheus(t *testing.T) {
	var m meters
	m.c[cInvokes] = 3
	m.c[cFaultCoW] = 12
	m.h[hE2E].observe(histUnits[hE2E], 2_000_000)
	s := m.snapshot()

	if len(s.Counters) != nCounters || len(s.Histograms) != nHists {
		t.Fatalf("snapshot sizes: %d counters, %d hists", len(s.Counters), len(s.Histograms))
	}
	for i := 1; i < len(s.Counters); i++ {
		if s.Counters[i-1].Name >= s.Counters[i].Name {
			t.Fatalf("counters not sorted at %d: %s >= %s", i, s.Counters[i-1].Name, s.Counters[i].Name)
		}
	}
	if v, ok := s.Counter("snapbpf_invokes_total"); !ok || v != 3 {
		t.Errorf("invokes counter = %d, %v", v, ok)
	}
	if h, ok := s.Histogram("snapbpf_e2e_ns"); !ok || h.Count != 1 || h.Sum != 2_000_000 {
		t.Errorf("e2e hist = %+v, %v", h, ok)
	}

	prom := string(s.Prometheus())
	for _, want := range []string{
		"# TYPE snapbpf_invokes_total counter\nsnapbpf_invokes_total 3\n",
		"# TYPE snapbpf_e2e_ns histogram\n",
		"snapbpf_e2e_ns_bucket{le=\"+Inf\"} 1\n",
		"snapbpf_e2e_ns_sum 2000000\n",
		"snapbpf_e2e_ns_count 1\n",
		"snapbpf_e2e_ns_p50 2000000\n",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
	if !bytes.Equal(s.Prometheus(), m.snapshot().Prometheus()) {
		t.Error("equal meters render different prometheus bytes")
	}
}

func TestBuildMetricsJSON(t *testing.T) {
	mkReport := func(invokes int64) *Report {
		var m meters
		m.c[cInvokes] = invokes
		return &Report{m: m, hasMetrics: true}
	}
	cells := []MetricsCell{
		{Name: "a", Report: mkReport(2)},
		{Name: "b", Report: mkReport(5)},
		{Name: "skipped", Report: nil},
		{Name: "no-metrics", Report: &Report{}},
	}
	data, err := BuildMetricsJSON(cells)
	if err != nil {
		t.Fatal(err)
	}
	agg := MergeMetrics([]*Report{cells[0].Report, cells[1].Report})
	if v, _ := agg.Counter("snapbpf_invokes_total"); v != 7 {
		t.Errorf("aggregate invokes = %d, want 7", v)
	}
	if !strings.Contains(string(data), "\"aggregate\"") || !strings.Contains(string(data), "\"cells\"") {
		t.Errorf("metrics document missing sections:\n%s", data)
	}
	data2, err := BuildMetricsJSON(cells)
	if err != nil || !bytes.Equal(data, data2) {
		t.Error("equal cells render different metrics bytes")
	}
}

func TestBuildTraceAndValidate(t *testing.T) {
	withArgs := func(ev Event, args ...Arg) Event {
		ev.nargs = uint8(copy(ev.args[:], args))
		return ev
	}
	rep := &Report{
		threads: []string{"host", "vm0"},
		trace: newEventBuf(
			withArgs(Event{Name: "restore", Cat: "vm", Ph: 'X', Ts: 1000, Dur: 2500, Tid: 1},
				argStr("vm", "tiny-vm0")),
			withArgs(Event{Name: "io", Cat: "io", Ph: 'b', Ts: 1500, ID: 1},
				argInt("off", 0), argInt("len", 4096)),
			Event{Name: "io", Cat: "io", Ph: 'e', Ts: 2000, ID: 1},
			withArgs(Event{Name: "degraded", Cat: "scheme", Ph: 'i', Ts: 3000},
				argStr("reason", "quoted \"stuff\"")),
		),
	}
	data := BuildTrace([]TraceCell{{Name: "cell-a", Report: rep}, {Name: "empty", Report: nil}})
	if err := ValidateTrace(data); err != nil {
		t.Fatalf("built trace does not validate: %v\n%s", err, data)
	}
	if !bytes.Equal(data, BuildTrace([]TraceCell{{Name: "cell-a", Report: rep}, {Name: "empty", Report: nil}})) {
		t.Error("equal cells render different trace bytes")
	}
	// Fractional-µs timestamps render with fixed precision.
	if !strings.Contains(string(data), "\"ts\":1.000") || !strings.Contains(string(data), "\"dur\":2.500") {
		t.Errorf("timestamp rendering drifted:\n%s", data)
	}
}

func TestValidateTraceRejects(t *testing.T) {
	bad := map[string]string{
		"not json":       `{"traceEvents":[`,
		"no traceEvents": `{}`,
		"missing name":   `{"traceEvents":[{"ph":"i","ts":1,"pid":1,"tid":0}]}`,
		"bad phase":      `{"traceEvents":[{"name":"x","ph":"Z","ts":1,"pid":1,"tid":0}]}`,
		"negative ts":    `{"traceEvents":[{"name":"x","ph":"i","ts":-5,"pid":1,"tid":0}]}`,
		"X without dur":  `{"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":1,"tid":0}]}`,
		"b without id":   `{"traceEvents":[{"name":"x","ph":"b","ts":1,"pid":1,"tid":0}]}`,
		"M without args": `{"traceEvents":[{"name":"x","ph":"M","pid":1,"tid":0}]}`,
	}
	for label, doc := range bad {
		if err := ValidateTrace([]byte(doc)); err == nil {
			t.Errorf("%s: validated", label)
		}
	}
	ok := `{"traceEvents":[{"name":"x","ph":"i","ts":1.5,"s":"t","pid":1,"tid":0}]}`
	if err := ValidateTrace([]byte(ok)); err != nil {
		t.Errorf("minimal valid doc rejected: %v", err)
	}
}

// testRecorder builds a recorder outside Attach so tests can exercise
// observer methods directly, plus a live Proc to attribute events to.
func testRecorder(cfg Config) (*Recorder, *sim.Proc) {
	eng := sim.NewEngine()
	var proc *sim.Proc
	eng.Go("worker", func(p *sim.Proc) { proc = p })
	eng.Run()
	r := &Recorder{
		cfg:       cfg,
		eng:       eng,
		maxEvents: DefaultMaxTraceEvents,
		threads:   []string{"host"},
		vmEnd:     make(map[*vmm.MicroVM]sim.Time),
		ioOpen:    make(map[int64]sim.Time),
	}
	if cfg.Trace {
		r.events = &eventBuf{}
	}
	return r, proc
}

// hotFixtures builds the real inode and VM the armed tracer needs:
// ReadaheadIssued and PrefetchIssued serialize ino.Name()/vm.Name into
// trace args, so the armed paths cannot run against nil pointers.
func hotFixtures() (*pagecache.Inode, *vmm.MicroVM) {
	eng := sim.NewEngine()
	dev := blockdev.New(eng, blockdev.MicronSATA5300())
	c := pagecache.New(eng, dev, kprobe.NewRegistry(), costmodel.Default())
	return c.NewInode("snap.img", 1024), &vmm.MicroVM{Name: "vm"}
}

// hotPath drives the fault- and prefetch-path observer methods the
// stack hits per guest access / per IO — the paths the cost contract
// promises stay allocation-free with tracing disabled and
// amortized-allocation-free with the tracer armed.
func hotPath(r *Recorder, p *sim.Proc, ino *pagecache.Inode, vm *vmm.MicroVM) {
	r.EventScheduled(1)
	r.ClockAdvanced(1)
	r.AccessBegin(p, nil, 5, true)
	r.FaultResolved(p, nil, 5, true, hostmm.FaultCoW)
	r.AccessEnd(p, nil, 5, true, false)
	r.IOSubmitted(7, 0, 4096, true, 1, 1)
	r.RequestServiced(0, 4096, 1, 1, faults.ReadOutcome{})
	r.RequestCompleted(0)
	r.IOCompleted(7, false)
	r.PageInserted(ino, 3, true)
	r.ReadaheadIssued(ino, 0, 8, 8)
	r.FilePageMapped(nil, 1, ino, 1)
	r.FilePageUnmapped(nil, 1, ino, 1)
	r.PrefetchIssued(p, "scheme", vm, 0, 8)
}

// TestDisabledTracerAllocs pins the cost contract: with tracing off
// (metrics on), the recorder's fault and prefetch hot paths perform
// zero allocations per event once warm.
func TestDisabledTracerAllocs(t *testing.T) {
	r, p := testRecorder(Config{Metrics: true})
	ino, vm := hotFixtures()
	hotPath(r, p, ino, vm) // warm: maps and frame stacks allocate on first use
	if avg := testing.AllocsPerRun(200, func() { hotPath(r, p, ino, vm) }); avg != 0 {
		t.Fatalf("disabled-tracer hot path allocates %.2f times per pass, want 0", avg)
	}
}

// TestArmedTracerAllocs pins the armed-tracer contract: with tracing
// on, recording an event costs no per-event heap allocation — argument
// lists live inline in the Event and events land in chunked storage,
// so the only allocations left are one ~1.2MB chunk per 4096 events.
// A hotPath pass records ~14 events, so the amortized allocation
// budget per pass is well under one; the old slice-backed layout
// allocated at least one args slice per event (~14+ per pass).
func TestArmedTracerAllocs(t *testing.T) {
	r, p := testRecorder(Config{Trace: true, Metrics: true})
	ino, vm := hotFixtures()
	hotPath(r, p, ino, vm) // warm maps, frame stacks and the first chunk
	if avg := testing.AllocsPerRun(100, func() { hotPath(r, p, ino, vm) }); avg > 0.5 {
		t.Fatalf("armed-tracer hot path allocates %.2f times per pass, want amortized < 0.5", avg)
	}
}

// TestMetricsDisabledAllocs covers the fully disabled recorder config
// too — counters still tick (they are plain array stores) but nothing
// may allocate.
func TestMetricsDisabledAllocs(t *testing.T) {
	r, p := testRecorder(Config{})
	ino, vm := hotFixtures()
	hotPath(r, p, ino, vm)
	if avg := testing.AllocsPerRun(200, func() { hotPath(r, p, ino, vm) }); avg != 0 {
		t.Fatalf("disabled recorder hot path allocates %.2f times per pass, want 0", avg)
	}
}

// TestRecorderHotPathCounters checks the hot-path methods account
// their events into the right counters.
func TestRecorderHotPathCounters(t *testing.T) {
	r, p := testRecorder(Config{Metrics: true})
	ino, vm := hotFixtures()
	hotPath(r, p, ino, vm)
	rep := r.Finish()
	s := rep.Metrics()
	if s == nil {
		t.Fatal("metrics requested but snapshot is nil")
	}
	want := map[string]int64{
		"snapbpf_guest_accesses_total":          1,
		"snapbpf_guest_writes_total":            1,
		"snapbpf_faults_cow_total":              1,
		"snapbpf_io_submissions_sync_total":     1,
		"snapbpf_io_completions_total":          1,
		"snapbpf_io_requests_total":             1,
		"snapbpf_cache_inserts_readahead_total": 1,
		"snapbpf_readahead_calls_total":         1,
		"snapbpf_readahead_pages_total":         8,
		"snapbpf_file_pages_mapped_total":       1,
		"snapbpf_file_pages_unmapped_total":     1,
		"snapbpf_prefetch_groups_total":         1,
		"snapbpf_prefetch_pages_total":          8,
		"snapbpf_sim_events_scheduled_total":    1,
	}
	for name, v := range want {
		if got, ok := s.Counter(name); !ok || got != v {
			t.Errorf("%s = %d (present=%v), want %d", name, got, ok, v)
		}
	}
	if rep.TraceEventCount() != 0 {
		t.Errorf("tracing disabled but %d events recorded", rep.TraceEventCount())
	}
}

// TestEmitCap checks the trace-event cap converts overflow into the
// dropped counter rather than unbounded growth.
func TestEmitCap(t *testing.T) {
	r, p := testRecorder(Config{Trace: true})
	r.maxEvents = 2
	for i := 0; i < 5; i++ {
		r.Degraded("s", &vmm.MicroVM{Name: "vm"}, "reason")
	}
	_ = p
	rep := r.Finish()
	if rep.TraceEventCount() != 2 {
		t.Errorf("events recorded = %d, want 2", rep.TraceEventCount())
	}
	if rep.TraceDropped() != 3 {
		t.Errorf("dropped = %d, want 3", rep.TraceDropped())
	}
}
