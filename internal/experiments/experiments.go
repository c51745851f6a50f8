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
	// Progress, when non-nil, receives a line per table row. Lines
	// are emitted in deterministic (row) order once a figure's cells
	// have all completed, so -v output does not depend on Parallel.
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
