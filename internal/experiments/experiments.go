package experiments

import (
	"fmt"
	"time"

	"snapbpf/internal/faults"
	"snapbpf/internal/obs"
	"snapbpf/internal/store"
	"snapbpf/internal/workload"
)

// Options configures a whole-figure run.
type Options struct {
	// Functions restricts the workload suite; nil means all 15.
	Functions []workload.Function
	// Progress, when non-nil, receives a line per completed cell.
	// Lines are emitted in deterministic (cell) order once a figure's
	// cells have all completed, so -v output does not depend on
	// Parallel.
	Progress func(msg string)
	// Parallel is the number of worker goroutines measurement cells
	// are scheduled across: 0 means one per CPU (GOMAXPROCS), 1 runs
	// serially. Results are identical either way; only wall-clock
	// time changes.
	Parallel int

	// Faults, when non-nil, is applied to every cell whose Config does
	// not set its own plan — the -faults CLI flags route here. Cells
	// that must stay healthy (or sweep their own plans, like the chaos
	// experiment) set Config.Faults explicitly and win.
	Faults *faults.Plan

	// Check arms the invariant-checking harness (internal/check) on
	// every cell — the -check CLI flag routes here. Any invariant
	// violation fails the cell's Run.
	Check bool

	// Obs, when non-nil and enabled, arms the observability layer
	// (internal/obs) on every cell whose Config does not set its own —
	// the -trace/-metrics CLI flags route here.
	Obs *obs.Config

	// ObsSink, when non-nil, receives every observability report an
	// experiment produces, with a name for its unit of measurement:
	// "Scheme/Function/nN" per RunCells cell, one per (cell, host) from
	// the cluster experiment, per (function, scheme) from
	// ext-steady-state and per scheme from ext-colocation. Reports
	// arrive after each batch settles, in cell or job order regardless
	// of which pool worker ran them, so any trace or metrics document
	// built from the sink is byte-identical between serial and parallel
	// execution. Units that produced no report are skipped.
	ObsSink func(name string, rep *obs.Report)

	// Cluster tunes the cluster experiment; nil means the golden
	// 4-host configuration (see ClusterParams).
	Cluster *ClusterParams

	// Store, when non-nil, is applied to every cell whose Config does
	// not set its own distribution-tier setup — the -store/-fetch-policy
	// CLI flags route here. Cells that sweep tiers themselves (the
	// locality experiment) set Config.Store explicitly and win.
	Store *store.Setup

	// StorePermute, when non-zero, seeds a metamorphic shuffle of every
	// locality-cell manifest's chunk order. Chunk order carries no
	// meaning, so any seed must leave the experiment's CSV
	// byte-identical — a test knob.
	StorePermute int64
}

func (o Options) functions() []workload.Function {
	if len(o.Functions) > 0 {
		return o.Functions
	}
	return workload.Suite()
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// sink hands rep to ObsSink, if both are set.
func (o Options) sink(name string, rep *obs.Report) {
	if o.ObsSink != nil && rep != nil {
		o.ObsSink(name, rep)
	}
}

func secs(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }
func ratio(a, b time.Duration) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}

// Table1 reproduces the paper's Table 1: the qualitative comparison of
// snapshot prefetching techniques, generated from each scheme's
// Capabilities introspection rather than hand-written.
func Table1(o Options) (*Table, error) {
	t := &Table{
		ID:    "table1",
		Title: "Comparison of snapshot prefetching techniques",
		Columns: []string{"Scheme", "Mechanism", "On-disk WS serialization",
			"In-memory WS dedup", "Stateless VM alloc filtering"},
	}
	yn := func(b bool) string {
		if b {
			return "Yes"
		}
		return "No"
	}
	for _, s := range []Scheme{SchemeREAP, SchemeFaast, SchemeFaaSnap, SchemeSnapBPF} {
		c := s.New().Capabilities()
		t.AddRow(s.Name, c.Mechanism, yn(c.OnDiskWSSerialization),
			yn(c.InMemoryWSDedup), yn(c.StatelessAllocFiltering))
	}
	return t, nil
}

// Fig3a reproduces Figure 3a: end-to-end function latency for a
// single instance under REAP, FaaSnap and SnapBPF. The paper plots
// latency normalized to SnapBPF; the absolute SnapBPF seconds are
// included for reference.
func Fig3a(o Options) (*Table, error) {
	t := &Table{
		ID:    "fig3a",
		Title: "E2E function latency, single instance (normalized to SnapBPF)",
		Note:  "norm = scheme E2E / SnapBPF E2E; lower is better",
		Columns: []string{"Function", "REAP", "FaaSnap", "SnapBPF",
			"SnapBPF (s)"},
	}
	fns := o.functions()
	schemes := []Scheme{SchemeREAP, SchemeFaaSnap, SchemeSnapBPF}
	rs, err := RunCells(o, grid(fns, schemes, Config{N: 1}))
	if err != nil {
		return nil, err
	}
	for fi, fn := range fns {
		var e2e [3]time.Duration
		for i, s := range schemes {
			e2e[i] = rs[fi*len(schemes)+i].MeanE2E
			o.progress("fig3a %-10s %-8s E2E=%v", fn.Name, s.Name, e2e[i])
		}
		t.AddRow(fn.Name, ratio(e2e[0], e2e[2]), ratio(e2e[1], e2e[2]), "1.00", secs(e2e[2]))
	}
	return t, nil
}

// grid builds the cell list for a functions x schemes sweep with one
// shared config — the shape of most figures.
func grid(fns []workload.Function, schemes []Scheme, cfg Config) []Cell {
	cells := make([]Cell, 0, len(fns)*len(schemes))
	for _, fn := range fns {
		for _, s := range schemes {
			cells = append(cells, Cell{Fn: fn, Scheme: s, Cfg: cfg})
		}
	}
	return cells
}

var fig3bSchemes = []Scheme{SchemeLinuxNoRA, SchemeLinuxRA, SchemeREAP, SchemeSnapBPF}

// Fig3b reproduces Figure 3b: end-to-end latency for 10 concurrent
// instances of the same function under Linux-NoRA, Linux-RA, REAP and
// SnapBPF (absolute seconds, as in the paper).
func Fig3b(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig3b",
		Title:   "E2E function latency (s), 10 concurrent instances",
		Columns: []string{"Function", "Linux-NoRA", "Linux-RA", "REAP", "SnapBPF", "REAP/SnapBPF"},
	}
	fns := o.functions()
	rs, err := RunCells(o, grid(fns, fig3bSchemes, Config{N: 10}))
	if err != nil {
		return nil, err
	}
	for fi, fn := range fns {
		var e2e [4]time.Duration
		for i, s := range fig3bSchemes {
			e2e[i] = rs[fi*len(fig3bSchemes)+i].MeanE2E
			o.progress("fig3b %-10s %-10s E2E=%v", fn.Name, s.Name, e2e[i])
		}
		t.AddRow(fn.Name, secs(e2e[0]), secs(e2e[1]), secs(e2e[2]), secs(e2e[3]),
			ratio(e2e[2], e2e[3])+"x")
	}
	return t, nil
}

// Fig3c reproduces Figure 3c: system-wide memory consumption for 10
// concurrent instances (GiB, as in the paper).
func Fig3c(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig3c",
		Title:   "Memory consumption (GiB), 10 concurrent instances",
		Columns: []string{"Function", "Linux-NoRA", "Linux-RA", "REAP", "SnapBPF", "REAP/SnapBPF"},
	}
	gib := func(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<30)) }
	fns := o.functions()
	rs, err := RunCells(o, grid(fns, fig3bSchemes, Config{N: 10}))
	if err != nil {
		return nil, err
	}
	for fi, fn := range fns {
		var mem [4]int64
		for i, s := range fig3bSchemes {
			res := rs[fi*len(fig3bSchemes)+i]
			mem[i] = int64(res.SystemMemory)
			o.progress("fig3c %-10s %-10s mem=%v", fn.Name, s.Name, res.SystemMemory)
		}
		t.AddRow(fn.Name, gib(mem[0]), gib(mem[1]), gib(mem[2]), gib(mem[3]),
			fmt.Sprintf("%.1fx", float64(mem[2])/float64(mem[3])))
	}
	return t, nil
}

// Fig4 reproduces Figure 4: the breakdown of SnapBPF's two mechanisms
// — invocation latency normalized to the Linux-RA baseline for (i) PV
// PTE marking alone and (ii) PV PTE marking plus eBPF prefetching.
func Fig4(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig4",
		Title:   "Mechanism breakdown: normalized invocation latency vs Linux-RA",
		Note:    "lower is better; 0.50 means 2x faster than Linux-RA",
		Columns: []string{"Function", "Linux-RA", "PVPTEs", "SnapBPF"},
	}
	fns := o.functions()
	schemes := []Scheme{SchemeLinuxRA, SchemePVOnly, SchemeSnapBPF}
	rs, err := RunCells(o, grid(fns, schemes, Config{N: 1}))
	if err != nil {
		return nil, err
	}
	for fi, fn := range fns {
		var e2e [3]time.Duration
		for i, s := range schemes {
			e2e[i] = rs[fi*len(schemes)+i].MeanE2E
			o.progress("fig4 %-10s %-8s E2E=%v", fn.Name, s.Name, e2e[i])
		}
		t.AddRow(fn.Name, "1.00", ratio(e2e[1], e2e[0]), ratio(e2e[2], e2e[0]))
	}
	return t, nil
}

// Overheads reproduces the §4 "SnapBPF Overheads" measurement: the
// latency of loading the captured offsets into the kernel via the
// eBPF map, absolute and as a share of E2E latency.
func Overheads(o Options) (*Table, error) {
	t := &Table{
		ID:      "overheads",
		Title:   "SnapBPF offset-loading overhead (eBPF map updates)",
		Note:    "paper: ~1-2ms, <1% of E2E latency on average",
		Columns: []string{"Function", "WS groups", "Load (ms)", "E2E (s)", "Load/E2E"},
	}
	fns := o.functions()
	rs, err := RunCells(o, grid(fns, []Scheme{SchemeSnapBPF}, Config{N: 1}))
	if err != nil {
		return nil, err
	}
	for fi, fn := range fns {
		res := rs[fi]
		o.progress("overheads %-10s load=%v e2e=%v", fn.Name, res.OffsetLoad, res.MeanE2E)
		t.AddRow(fn.Name, fmt.Sprintf("%d", res.WSGroups),
			fmt.Sprintf("%.3f", float64(res.OffsetLoad)/float64(time.Millisecond)),
			secs(res.MeanE2E),
			fmt.Sprintf("%.2f%%", 100*float64(res.OffsetLoad)/float64(res.MeanE2E)))
	}
	return t, nil
}
