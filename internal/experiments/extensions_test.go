package experiments

import (
	"math"
	"slices"
	"strings"
	"testing"

	"snapbpf/internal/faults"
	"snapbpf/internal/obs"
	"snapbpf/internal/workload"
)

func TestInputVarianceErodesDedup(t *testing.T) {
	fn := tinyFn()
	same, err := Run(fn, SchemeSnapBPF, Config{N: 10})
	if err != nil {
		t.Fatal(err)
	}
	varied, err := Run(fn, SchemeSnapBPF, Config{N: 10, InputVariance: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if varied.SystemMemory <= same.SystemMemory {
		t.Fatalf("varying inputs did not grow memory: %v vs %v",
			varied.SystemMemory, same.SystemMemory)
	}
}

func TestRunWavesWarmsCache(t *testing.T) {
	fn := tinyFn()
	res, err := RunWaves(fn, SchemeSnapBPF, 3, 0, Config{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WaveE2E) != 3 {
		t.Fatalf("waves = %d", len(res.WaveE2E))
	}
	// Later waves restore against a warm page cache: strictly faster.
	if res.WaveE2E[1] >= res.WaveE2E[0] {
		t.Fatalf("wave 2 (%v) not faster than wave 1 (%v)", res.WaveE2E[1], res.WaveE2E[0])
	}
	// Device traffic is ~one working set, not three.
	ws := fn.WSPages() * 4096
	if res.DeviceBytes > ws*2 {
		t.Fatalf("device bytes %d for 3 waves, ws %d: cache not reused", res.DeviceBytes, ws)
	}

	reap, err := RunWaves(fn, SchemeREAP, 3, 0, Config{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	// REAP cannot reuse anything across waves.
	if reap.WaveE2E[1] < reap.WaveE2E[0]*9/10 {
		t.Fatalf("REAP wave 2 (%v) benefited from cache it bypasses (wave 1 %v)",
			reap.WaveE2E[1], reap.WaveE2E[0])
	}
	if reap.DeviceBytes < res.DeviceBytes*3 {
		t.Fatalf("REAP device bytes %d should dwarf SnapBPF's %d", reap.DeviceBytes, res.DeviceBytes)
	}
}

func TestRunWavesValidation(t *testing.T) {
	if _, err := RunWaves(tinyFn(), SchemeSnapBPF, 0, 0, Config{N: 2}); err == nil {
		t.Fatal("zero waves accepted")
	}
}

// TestRunConfigValidation: out-of-range Config values fail the run
// with an error naming the field, instead of running as if they were
// in range.
func TestRunConfigValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"variance-above-1", Config{InputVariance: 5}, "input variance"},
		{"variance-negative", Config{InputVariance: -1}, "input variance"},
		{"variance-nan", Config{InputVariance: math.NaN()}, "input variance"},
		{"drift-negative", Config{AllocDrift: -3}, "allocator drift"},
		{"cache-limit-negative", Config{CacheLimitPages: -5}, "page-cache limit"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := Run(tinyFn(), SchemeSnapBPF, c.cfg)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one containing %q", err, c.want)
			}
		})
	}
}

// TestSteadyStateAndColocationHonourOptions: ext-steady-state and
// ext-colocation run through the same armed host as every other cell,
// so injected faults move their numbers, and the checker and recorder
// report on every run without moving a byte of the table.
func TestSteadyStateAndColocationHonourOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state and co-location sweeps are slow")
	}
	var fns []workload.Function
	for _, name := range []string{"json", "image"} {
		fn, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		fns = append(fns, fn)
	}
	light := faults.Light(1)
	for _, exp := range []struct {
		id      string
		run     func(Options) (*Table, error)
		reports []string
	}{
		{"ext-steady-state", ExtSteadyState, []string{"json/REAP", "json/SnapBPF", "image/REAP", "image/SnapBPF"}},
		{"ext-colocation", ExtColocation, []string{"REAP", "SnapBPF"}},
	} {
		healthy, err := exp.run(Options{Functions: fns})
		if err != nil {
			t.Fatal(err)
		}
		faulted, err := exp.run(Options{Functions: fns, Faults: &light})
		if err != nil {
			t.Fatal(err)
		}
		if faulted.CSV() == healthy.CSV() {
			t.Errorf("%s: light faults left the table unchanged", exp.id)
		}
		var got []string
		armed, err := exp.run(Options{Functions: fns, Check: true, Obs: &obs.Config{Metrics: true},
			ObsSink: func(name string, rep *obs.Report) {
				if rep.Metrics() != nil {
					got = append(got, name)
				}
			}})
		if err != nil {
			t.Fatal(err)
		}
		if armed.CSV() != healthy.CSV() {
			t.Errorf("%s: arming the checker and recorder moved the table", exp.id)
		}
		if !slices.Equal(got, exp.reports) {
			t.Errorf("%s: metrics reports for %v, want %v", exp.id, got, exp.reports)
		}
	}
}

func TestRunMixedRejectsBadInput(t *testing.T) {
	fn := tinyFn()
	if _, err := RunMixed([]workload.Function{fn, tinyFn()}, SchemeSnapBPF, Config{N: 1}); err == nil {
		t.Error("a function given twice was accepted")
	}
	if _, err := RunMixed([]workload.Function{fn}, SchemeSnapBPF, Config{N: -1}); err == nil {
		t.Error("a negative sandbox count was accepted")
	}
}

func TestRunMixedColocation(t *testing.T) {
	fns := []workload.Function{tinyFn(), {
		Name: "tiny2", MemMiB: 64, StateMiB: 32, WSMiB: 6, WSRegions: 8,
		AllocMiB: 4, ComputeMs: 8, WriteFrac: 0.1, Seed: 9,
	}}
	res, err := RunMixed(fns, SchemeSnapBPF, Config{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerFunction) != 2 {
		t.Fatalf("per-function results = %v", res.PerFunction)
	}
	for name, d := range res.PerFunction {
		if d <= 0 {
			t.Fatalf("%s: E2E %v", name, d)
		}
	}
	if res.SystemMemory <= 0 || res.DeviceBytes <= 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestRunMixedIsolatesWorkingSets(t *testing.T) {
	// Two different functions colocated under SnapBPF: each sandbox
	// must only prefetch its own snapshot (inode filters in the eBPF
	// programs). Device traffic is bounded by the two WS sizes.
	fnA := tinyFn()
	fnB := fnA
	fnB.Name = "tinyB"
	fnB.Seed = 77
	res, err := RunMixed([]workload.Function{fnA, fnB}, SchemeSnapBPF, Config{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	wsBytes := 2 * fnA.WSPages() * 4096
	if res.DeviceBytes > wsBytes*3/2 {
		t.Fatalf("device bytes %d exceed 1.5x combined WS %d: cross-function prefetch leak",
			res.DeviceBytes, wsBytes)
	}
}

func TestExtensionExperimentsOnTinySuite(t *testing.T) {
	if testing.Short() {
		t.Skip("extension sweeps are slow")
	}
	opts := Options{Functions: []workload.Function{tinyFn()}}
	for _, id := range []string{"ext-cost-analysis", "ext-colocation"} {
		tbl, err := experimentByID(t, id)(opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s: empty table", id)
		}
	}
}

func TestEveryExperimentRunsOnTinySuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep is slow")
	}
	opts := Options{Functions: []workload.Function{tinyFn()}}
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			tbl, err := exp.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("empty table")
			}
			if tbl.ID != exp.ID {
				t.Fatalf("table id %q != experiment id %q", tbl.ID, exp.ID)
			}
			if len(tbl.Columns) < 2 {
				t.Fatalf("columns = %v", tbl.Columns)
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Fatalf("row %d has %d cells for %d columns", i, len(row), len(tbl.Columns))
				}
			}
			// Render and CSV must not panic and must mention the ID.
			if out := tbl.Render(); len(out) == 0 {
				t.Fatal("empty render")
			}
			if out := tbl.CSV(); len(out) == 0 {
				t.Fatal("empty csv")
			}
		})
	}
}

func TestFigureExperimentsOnTinySuite(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	opts := Options{Functions: []workload.Function{tinyFn()}}
	for _, id := range []string{"fig3a", "fig4", "overheads"} {
		tbl, err := experimentByID(t, id)(opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) != 1 {
			t.Fatalf("%s: rows = %d", id, len(tbl.Rows))
		}
	}
}

// TestSnapshotCreationHonoursOptions arms snapshot creation like any
// cell: one metrics report per function, with the booted sandbox's
// guest accesses observed through its KVM, no violations, and the
// same table as the unarmed run.
func TestSnapshotCreationHonoursOptions(t *testing.T) {
	fns := goldenFunctions(t)
	plain, err := ExtSnapshotCreation(Options{Functions: fns})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	armed, err := ExtSnapshotCreation(Options{Functions: fns, Check: true, Obs: &obs.Config{Metrics: true},
		ObsSink: func(name string, rep *obs.Report) {
			if n, _ := rep.Metrics().Counter("snapbpf_guest_accesses_total"); n > 0 {
				got = append(got, name)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"image", "json"}; !slices.Equal(got, want) {
		t.Errorf("reports with guest accesses = %v, want %v", got, want)
	}
	if armed.CSV() != plain.CSV() {
		t.Errorf("arming the checker and recorder moved the table:\n%s--- unarmed ---\n%s", armed.CSV(), plain.CSV())
	}
}
