package calib

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"snapbpf/internal/experiments"
)

// synthetic builds a table matching ref's layout with the given cells.
func synthetic(id string, cols []string, rows [][]string) *experiments.Table {
	t := &experiments.Table{ID: id, Title: id, Columns: append([]string{"Key"}, cols...)}
	for _, r := range rows {
		t.AddRow(r...)
	}
	return t
}

func refFixture() []RefFigure {
	return []RefFigure{{
		ID: "f", MAPETol: 0.1, PearsonMin: 0.9,
		Columns: []string{"A", "B"},
		Rows:    []RefRow{{"x", []float64{1, 2}}, {"y", []float64{2, 4}}, {"z", []float64{3, 1}}},
	}}
}

func TestEvaluatePass(t *testing.T) {
	tbl := synthetic("f", []string{"A", "B"}, [][]string{
		{"x", "1.01", "2.02"}, {"y", "1.98", "4.1"}, {"z", "3.0", "0.95"},
	})
	rep, err := Evaluate(map[string]*experiments.Table{"f": tbl}, refFixture(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || len(rep.Figures) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	f := rep.Figures[0]
	if f.Rows != 3 || f.Pairs != 6 || f.MAPEPairs != 6 {
		t.Errorf("counts = %+v", f)
	}
	if f.MAPE <= 0 || f.MAPE > 0.1 {
		t.Errorf("MAPE = %v", f.MAPE)
	}
	if f.Pearson < 0.9 {
		t.Errorf("Pearson = %v", f.Pearson)
	}
}

func TestEvaluateFailsOnDrift(t *testing.T) {
	tbl := synthetic("f", []string{"A", "B"}, [][]string{
		{"x", "2", "2"}, {"y", "2", "4"}, {"z", "3", "1"}, // x/A is 2x off
	})
	rep, err := Evaluate(map[string]*experiments.Table{"f": tbl}, refFixture(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatalf("want drift failure, got %+v", rep.Figures[0])
	}
}

// Pairing is by name, so shuffling the table's rows and columns must
// produce a bit-identical figure verdict.
func TestEvaluateOrderInvariant(t *testing.T) {
	rows := [][]string{{"x", "1.01", "2.02"}, {"y", "1.98", "4.1"}, {"z", "3.0", "0.95"}}
	base, err := Evaluate(map[string]*experiments.Table{
		"f": synthetic("f", []string{"A", "B"}, rows),
	}, refFixture(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Reorder columns (B before A) and shuffle rows.
	swapped := [][]string{{"x", "2.02", "1.01"}, {"y", "4.1", "1.98"}, {"z", "0.95", "3.0"}}
	for seed := int64(1); seed <= 4; seed++ {
		shuffled := append([][]string(nil), swapped...)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		rep, err := Evaluate(map[string]*experiments.Table{
			"f": synthetic("f", []string{"B", "A"}, shuffled),
		}, refFixture(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Figures[0] != base.Figures[0] {
			t.Errorf("seed %d: reordered verdict %+v != %+v", seed, rep.Figures[0], base.Figures[0])
		}
	}
}

func TestEvaluateStructuralFailures(t *testing.T) {
	refs := refFixture()
	// Missing column.
	rep, err := Evaluate(map[string]*experiments.Table{
		"f": synthetic("f", []string{"A"}, [][]string{{"x", "1"}, {"y", "2"}, {"z", "3"}}),
	}, refs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass || rep.Figures[0].Err == "" {
		t.Errorf("missing column: %+v", rep.Figures[0])
	}
	// Missing row fails without AllowMissingRows...
	short := synthetic("f", []string{"A", "B"}, [][]string{{"x", "1", "2"}, {"z", "3", "1"}})
	rep, err = Evaluate(map[string]*experiments.Table{"f": short}, refs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Error("missing row without AllowMissingRows: want failure")
	}
	// ...and is skipped with it.
	rep, err = Evaluate(map[string]*experiments.Table{"f": short}, refs, Options{AllowMissingRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || rep.Figures[0].MissingRows != 1 || rep.Figures[0].Rows != 2 {
		t.Errorf("AllowMissingRows: %+v", rep.Figures[0])
	}
	// Unparseable cell.
	rep, err = Evaluate(map[string]*experiments.Table{
		"f": synthetic("f", []string{"A", "B"}, [][]string{{"x", "wat", "2"}, {"y", "2", "4"}, {"z", "3", "1"}}),
	}, refs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass || !strings.Contains(rep.Figures[0].Err, "bad value") {
		t.Errorf("bad cell: %+v", rep.Figures[0])
	}
	// No matching figure at all.
	if _, err := Evaluate(map[string]*experiments.Table{"other": short}, refs, Options{}); err == nil {
		t.Error("no matched figures: want error")
	}
	// All reference rows missing under AllowMissingRows: no pairs left.
	rep, err = Evaluate(map[string]*experiments.Table{
		"f": synthetic("f", []string{"A", "B"}, [][]string{{"q", "1", "2"}}),
	}, refs, Options{AllowMissingRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Error("zero shared rows: want failure")
	}
}

func TestEvaluateDegenerateSeries(t *testing.T) {
	refs := []RefFigure{{
		ID: "f", MAPETol: 0.1, PearsonMin: 0.9,
		Columns: []string{"A"},
		Rows:    []RefRow{{"x", []float64{0}}, {"y", []float64{0}}},
	}}
	// All-zero reference: MAPE degenerate, Pearson judges. Simulated
	// side varies so Pearson is defined but the reference is constant —
	// zero variance — so both are degenerate: structural failure.
	rep, err := Evaluate(map[string]*experiments.Table{
		"f": synthetic("f", []string{"A"}, [][]string{{"x", "0"}, {"y", "1"}}),
	}, refs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass || !strings.Contains(rep.Figures[0].Err, "degenerate") {
		t.Errorf("double-degenerate: %+v", rep.Figures[0])
	}
}

func TestReportJSONAndVerdictTable(t *testing.T) {
	tbl := synthetic("f", []string{"A", "B"}, [][]string{
		{"x", "1.01", "2.02"}, {"y", "1.98", "4.1"}, {"z", "9.9", "0.1"},
	})
	rep, err := Evaluate(map[string]*experiments.Table{"f": tbl}, refFixture(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(rep.JSON(), &decoded); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if decoded.Pass != rep.Pass || len(decoded.Figures) != len(rep.Figures) {
		t.Errorf("round trip lost data: %+v", decoded)
	}
	rendered := rep.VerdictTable().Render()
	if !strings.Contains(rendered, "FAIL") {
		t.Errorf("verdict table missing FAIL marker:\n%s", rendered)
	}
	if !strings.Contains(rendered, "f") {
		t.Errorf("verdict table missing figure id:\n%s", rendered)
	}
}
