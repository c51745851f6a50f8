package calib

import (
	"testing"

	"snapbpf/internal/costmodel"
	"snapbpf/internal/experiments"
	"snapbpf/internal/workload"
)

// Live fitness tests: regenerate real figures (json+image, the golden
// pair) and score them against the embedded reference dataset — the
// in-process version of `snapbpf-bench -fitness`, plus the sabotage
// proof that the drift alarm actually fires.

func liveFunctions(t *testing.T) []workload.Function {
	t.Helper()
	var fns []workload.Function
	for _, f := range workload.Suite() {
		if f.Name == "json" || f.Name == "image" {
			fns = append(fns, f)
		}
	}
	if len(fns) != 2 {
		t.Fatalf("expected json+image in suite, got %d functions", len(fns))
	}
	return fns
}

// runFigures regenerates the drift-alarm figures serially.
func runFigures(t *testing.T, fns []workload.Function) map[string]*experiments.Table {
	t.Helper()
	o := experiments.Options{Functions: fns, Parallel: 1}
	tables := map[string]*experiments.Table{}
	for _, id := range []string{"table1", "fig3a", "fig4"} {
		tbl, err := experiment(t, id)(o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		tables[id] = tbl
	}
	return tables
}

// experiment returns the runner experiments.All registers under id.
func experiment(t *testing.T, id string) func(experiments.Options) (*experiments.Table, error) {
	t.Helper()
	for _, e := range experiments.All() {
		if e.ID == id {
			return e.Run
		}
	}
	t.Fatalf("no experiment %q", id)
	return nil
}

func TestFitnessLive(t *testing.T) {
	if raceEnabled {
		t.Skip("full experiment cells; the non-race suite covers fitness")
	}
	tables := runFigures(t, liveFunctions(t))
	rep, err := Evaluate(tables, References(), Options{AllowMissingRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Figures) != 3 {
		t.Fatalf("evaluated %d figures, want 3: %+v", len(rep.Figures), rep.Figures)
	}
	if !rep.Pass {
		t.Fatalf("healthy run outside tolerance:\n%s", rep.VerdictTable().Render())
	}
	for _, f := range rep.Figures {
		if f.Err != "" {
			t.Errorf("%s: structural failure: %s", f.Figure, f.Err)
		}
	}
}

// TestSabotageAlarm proves the CI drift alarm is live: perturb one
// cost-model constant (a 10x UFFDIO_COPY — REAP and Faast pay it per
// working-set page, SnapBPF never does, so the normalised REAP column
// inflates ~3x) and the fig3a fitness must blow through its tolerance
// band.
func TestSabotageAlarm(t *testing.T) {
	if raceEnabled {
		t.Skip("full experiment cells; the non-race suite covers fitness")
	}
	costmodel.SetPerturb(func(m costmodel.Model) costmodel.Model {
		m.UffdCopyPage *= 10
		return m
	})
	defer costmodel.SetPerturb(nil)

	tbl, err := experiment(t, "fig3a")(experiments.Options{Functions: liveFunctions(t), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Evaluate(map[string]*experiments.Table{"fig3a": tbl}, References(),
		Options{AllowMissingRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatalf("alarm did not fire on a 10x UffdCopyPage:\n%s", rep.VerdictTable().Render())
	}
	f := rep.Figures[0]
	if f.Err != "" {
		t.Fatalf("want a tolerance failure, got a structural one: %s", f.Err)
	}
	if f.MAPE <= f.MAPETol {
		t.Errorf("MAPE %v within tolerance %v; expected the REAP column to inflate", f.MAPE, f.MAPETol)
	}
}
