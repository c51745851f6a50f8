package calib

import (
	"encoding/csv"
	"math"
	"os"
	"testing"

	"snapbpf/internal/experiments"
)

func TestParseValue(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"1.25", 1.25},
		{" 0.5 ", 0.5},
		{"Yes", 1},
		{"No", 0},
		{"2.31x", 2.31},
		{"0.18%", 0.18},
		{"-3", -3},
		{"1e-3", 0.001},
	}
	for _, c := range cases {
		got, err := ParseValue(c.in)
		if err != nil {
			t.Errorf("ParseValue(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseValue(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "abc", "NaN", "+Inf", "-Inf", "1.2.3"} {
		if _, err := ParseValue(bad); err == nil {
			t.Errorf("ParseValue(%q): want error", bad)
		}
	}
}

// The reference dataset must carry the four figures the CI drift alarm
// evaluates, each with its tolerance band, and the per-function figures
// must cover the whole 15-function suite.
func TestReferencesParse(t *testing.T) {
	figs := map[string]RefFigure{}
	for _, f := range References() {
		figs[f.ID] = f
	}
	for _, id := range []string{"table1", "fig3a", "fig4", "overheads"} {
		f, ok := figs[id]
		if !ok {
			t.Errorf("reference dataset is missing figure %q", id)
			continue
		}
		if !(f.MAPETol > 0) || !(f.PearsonMin > 0) {
			t.Errorf("%s: tolerance band MAPE %v / Pearson %v not set", id, f.MAPETol, f.PearsonMin)
		}
		if id != "table1" && len(f.Rows) != 15 {
			t.Errorf("%s: %d rows, want the 15-function suite", id, len(f.Rows))
		}
	}
}

// The overheads references are the reviewed values of the committed
// results/overheads.csv, not the paper's: every reference row must
// equal its Load (ms) cell there, so regenerating the CSV without
// updating the references (or the reverse) fails here.
func TestOverheadsReferencesMatchCommittedCSV(t *testing.T) {
	f, err := os.Open("../../results/overheads.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	for i, h := range recs[0] {
		if h == "Load (ms)" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("results/overheads.csv has no Load (ms) column: %v", recs[0])
	}
	load := map[string]string{}
	for _, r := range recs[1:] {
		load[r[0]] = r[col]
	}
	for _, fig := range References() {
		if fig.ID != "overheads" {
			continue
		}
		for _, row := range fig.Rows {
			cell, ok := load[row.Key]
			if !ok {
				t.Errorf("%s: no row in results/overheads.csv", row.Key)
				continue
			}
			got, err := ParseValue(cell)
			if err != nil {
				t.Errorf("%s: %v", row.Key, err)
				continue
			}
			if got != row.Vals[0] {
				t.Errorf("%s: reference %v, results/overheads.csv %v", row.Key, row.Vals[0], got)
			}
		}
	}
}

// The reference dataset must be well formed: unique figure IDs, column
// names and row keys, one finite value per column, tolerance bands set.
func TestReferencesWellFormed(t *testing.T) {
	refs := References()
	figs := map[string]RefFigure{}
	for _, f := range refs {
		if _, dup := figs[f.ID]; dup || f.ID == "" {
			t.Errorf("figure ID %q is empty or repeated", f.ID)
		}
		figs[f.ID] = f
		if !(f.MAPETol > 0) {
			t.Errorf("%s: MAPE tolerance %v not positive", f.ID, f.MAPETol)
		}
		if !(f.PearsonMin > 0 && f.PearsonMin <= 1) {
			t.Errorf("%s: Pearson minimum %v outside (0, 1]", f.ID, f.PearsonMin)
		}
		cols := map[string]bool{}
		for _, c := range f.Columns {
			if cols[c] || c == "" {
				t.Errorf("%s: column %q is empty or repeated", f.ID, c)
			}
			cols[c] = true
		}
		if len(f.Columns) == 0 || len(f.Rows) == 0 {
			t.Errorf("%s: %d columns, %d rows", f.ID, len(f.Columns), len(f.Rows))
		}
		keys := map[string]bool{}
		for _, r := range f.Rows {
			if keys[r.Key] || r.Key == "" {
				t.Errorf("%s: row key %q is empty or repeated", f.ID, r.Key)
			}
			keys[r.Key] = true
			if len(r.Vals) != len(f.Columns) {
				t.Errorf("%s row %s: %d values for %d columns", f.ID, r.Key, len(r.Vals), len(f.Columns))
			}
			for _, v := range r.Vals {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s row %s: non-finite value %v", f.ID, r.Key, v)
				}
			}
		}
	}
	// Each call is a fresh copy: a caller mutating its dataset cannot
	// move the next caller's references.
	refs[0].Rows[0].Vals[0] = -1
	if References()[0].Rows[0].Vals[0] == -1 {
		t.Error("References shares its backing arrays between calls")
	}
}

// TestTable1SingleFlip pins why table1 needs no claim of its own: its
// reference figure fails on any single flipped cell. The reference has
// six Yes (1) and six No (0) cells, and MAPE skips zero references. A
// Yes->No flip is one 100% error over six nonzero pairs, MAPE 1/6 >
// 0.10; a No->Yes flip leaves MAPE at 0 but drops Pearson to
// sqrt(5/7) ~ 0.845 < 0.90.
func TestTable1SingleFlip(t *testing.T) {
	var ref RefFigure
	for _, f := range References() {
		if f.ID == "table1" {
			ref = f
		}
	}
	yn := map[float64]string{1: "Yes", 0: "No"}
	build := func(flipRow, flipCol int) *experiments.Table {
		tbl := &experiments.Table{ID: "table1", Columns: append([]string{"Scheme", "Mechanism"}, ref.Columns...)}
		for ri, r := range ref.Rows {
			cells := []string{r.Key, "-"}
			for ci, v := range r.Vals {
				if ri == flipRow && ci == flipCol {
					v = 1 - v
				}
				cells = append(cells, yn[v])
			}
			tbl.AddRow(cells...)
		}
		return tbl
	}
	eval := func(tbl *experiments.Table) FigureFitness {
		rep, err := Evaluate(map[string]*experiments.Table{"table1": tbl}, References(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Figures[0]
	}
	if ff := eval(build(-1, -1)); !ff.Pass || ff.MAPE != 0 || ff.Pearson != 1 {
		t.Fatalf("unflipped table1: %+v", ff)
	}
	flips := 0
	for ri, r := range ref.Rows {
		for ci, v := range r.Vals {
			ff := eval(build(ri, ci))
			flips++
			if ff.Pass {
				t.Errorf("%s/%s flipped: figure still passes: %+v", r.Key, ref.Columns[ci], ff)
			}
			// Each flip direction fails on its own kernel alone.
			if v == 1 && (ff.MAPE < 1.0/6-1e-12 || ff.MAPE <= ff.MAPETol) {
				t.Errorf("%s/%s Yes->No: MAPE %v, want >= 1/6 and above the %v band",
					r.Key, ref.Columns[ci], ff.MAPE, ff.MAPETol)
			}
			if v == 0 && (ff.MAPE != 0 || ff.Pearson > math.Sqrt(5.0/7)+1e-12 || ff.Pearson >= ff.PearsonMin) {
				t.Errorf("%s/%s No->Yes: MAPE %v, Pearson %v; want 0 and <= sqrt(5/7), below the %v floor",
					r.Key, ref.Columns[ci], ff.MAPE, ff.Pearson, ff.PearsonMin)
			}
		}
	}
	if flips != 12 {
		t.Errorf("flipped %d cells, want table1's 12", flips)
	}
}
