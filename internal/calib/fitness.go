package calib

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"snapbpf/internal/experiments"
)

// Options controls Evaluate.
type Options struct {
	// AllowMissingRows skips reference rows absent from the simulated
	// table instead of failing the figure. Set when the run restricted
	// the function set (-funcs); never set in the CI drift alarm, which
	// runs the full suite.
	AllowMissingRows bool
}

// FigureFitness is the verdict for one figure.
type FigureFitness struct {
	Figure string `json:"figure"`
	// Rows is the number of reference rows matched against the table;
	// Pairs the number of (row, column) cells compared.
	Rows  int `json:"rows"`
	Pairs int `json:"pairs"`
	// MissingRows counts reference rows absent from the table (only
	// nonzero under Options.AllowMissingRows).
	MissingRows int `json:"missing_rows,omitempty"`
	// MAPE skips pairs with a zero reference; MAPEPairs is what
	// remained. MAPEDegenerate marks an all-zero reference (MAPE
	// undefined, judged on Pearson alone).
	MAPE           float64 `json:"mape"`
	MAPEPairs      int     `json:"mape_pairs"`
	MAPEDegenerate bool    `json:"mape_degenerate,omitempty"`
	MAPETol        float64 `json:"mape_tol"`
	// Pearson is r over all compared pairs; PearsonDegenerate marks a
	// zero-variance or single-pair series (r undefined, judged on MAPE
	// alone).
	Pearson           float64 `json:"pearson"`
	PearsonDegenerate bool    `json:"pearson_degenerate,omitempty"`
	PearsonMin        float64 `json:"pearson_min"`
	Pass              bool    `json:"pass"`
	// Err explains a structural failure (missing column/rows); when
	// set, Pass is false and the stats fields are zero.
	Err string `json:"error,omitempty"`
}

// ClaimVerdict is one checked statement from the paper's text.
type ClaimVerdict struct {
	Experiment string `json:"experiment"`
	Statement  string `json:"statement"`
	Measured   string `json:"measured"`
	Holds      bool   `json:"holds"`
}

// Report is the full fitness verdict, serialised to results/fitness.json.
// Pass is false if any figure is outside its band or any claim fails.
type Report struct {
	Pass    bool            `json:"pass"`
	Figures []FigureFitness `json:"figures"`
	Claims  []ClaimVerdict  `json:"claims"`
}

// Evaluate scores each regenerated table against its reference figure
// and checks the paper's claims against it. Figures and claims with no
// table in the run are skipped (the run chose a subset of
// experiments); a run that matches none of them is an error. Figure
// pairing is by (row key, column name), so row order and column order
// of the table cannot affect the result.
func Evaluate(tables map[string]*experiments.Table, refs []RefFigure, opts Options) (*Report, error) {
	rep := &Report{Pass: true}
	for _, ref := range refs {
		if tbl := tables[ref.ID]; tbl != nil {
			ff := evalFigure(tbl, ref, opts)
			rep.Pass = rep.Pass && ff.Pass
			rep.Figures = append(rep.Figures, ff)
		}
	}
	for _, c := range paperClaims {
		if tbl := tables[c.experiment]; tbl != nil {
			measured, holds := c.check(tbl)
			rep.Pass = rep.Pass && holds
			rep.Claims = append(rep.Claims, ClaimVerdict{
				Experiment: c.experiment, Statement: c.statement, Measured: measured, Holds: holds,
			})
		}
	}
	if len(rep.Figures)+len(rep.Claims) == 0 {
		return nil, fmt.Errorf("calib: no reference figure or paper claim matches the run's tables")
	}
	return rep, nil
}

// ParseValue converts one table cell to a float. Alongside plain
// numbers it accepts the conventions the experiment tables use:
// qualitative Yes/No cells map to 1/0, and "2.31x" / "0.18%" ratio
// suffixes are stripped (the percent cell keeps percent units — both
// sides of a comparison go through this same parser). Non-finite
// values are rejected.
func ParseValue(s string) (float64, error) {
	s = strings.TrimSpace(s)
	switch s {
	case "Yes":
		return 1, nil
	case "No":
		return 0, nil
	}
	s = strings.TrimSuffix(strings.TrimSuffix(s, "x"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("calib: bad value %q", s)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("calib: non-finite value %q", s)
	}
	return v, nil
}

// column returns the index of the named column in t, or -1.
func column(t *experiments.Table, name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// row returns the first row of t keyed (column 0) by key, or nil.
func row(t *experiments.Table, key string) []string {
	for _, r := range t.Rows {
		if len(r) > 0 && r[0] == key {
			return r
		}
	}
	return nil
}

func evalFigure(tbl *experiments.Table, ref RefFigure, opts Options) FigureFitness {
	ff := FigureFitness{
		Figure:     ref.ID,
		MAPETol:    ref.MAPETol,
		PearsonMin: ref.PearsonMin,
	}
	failf := func(format string, args ...any) FigureFitness {
		ff.Err = fmt.Sprintf(format, args...)
		return ff
	}

	// Map reference columns to table column indices by name.
	colIdx := make([]int, len(ref.Columns))
	for i, want := range ref.Columns {
		if colIdx[i] = column(tbl, want); colIdx[i] < 0 {
			return failf("table %s has no column %q", tbl.ID, want)
		}
	}

	var refVals, simVals []float64
	for _, rr := range ref.Rows {
		cells := row(tbl, rr.Key)
		if cells == nil {
			if opts.AllowMissingRows {
				ff.MissingRows++
				continue
			}
			return failf("table %s has no row %q", tbl.ID, rr.Key)
		}
		ff.Rows++
		for i, ci := range colIdx {
			if ci >= len(cells) {
				return failf("table %s row %q is short of column %q", tbl.ID, rr.Key, ref.Columns[i])
			}
			v, err := ParseValue(cells[ci])
			if err != nil {
				return failf("table %s row %q column %q: %v", tbl.ID, rr.Key, ref.Columns[i], err)
			}
			refVals = append(refVals, rr.Vals[i])
			simVals = append(simVals, v)
		}
	}
	if len(refVals) == 0 {
		return failf("table %s shares no rows with the reference", tbl.ID)
	}
	ff.Pairs = len(refVals)

	mape, used, err := MAPE(refVals, simVals)
	if err != nil {
		// Only reachable when every reference value is zero: MAPE is
		// undefined there, not failing.
		ff.MAPEDegenerate = true
	} else {
		ff.MAPE, ff.MAPEPairs = mape, used
	}
	r, err := Pearson(refVals, simVals)
	if err != nil {
		ff.PearsonDegenerate = true
	} else {
		ff.Pearson = r
	}
	if ff.MAPEDegenerate && ff.PearsonDegenerate {
		return failf("table %s: both MAPE and Pearson are degenerate", tbl.ID)
	}
	ff.Pass = (ff.MAPEDegenerate || ff.MAPE <= ff.MAPETol) &&
		(ff.PearsonDegenerate || ff.Pearson >= ff.PearsonMin)
	return ff
}

// JSON renders the report as stable, indented JSON with a trailing
// newline, suitable for byte comparison across runs.
func (r *Report) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic("calib: fitness report marshal: " + err.Error())
	}
	return append(b, '\n')
}

// VerdictTable renders the report as a human-readable table using the
// experiment table formatter.
func (r *Report) VerdictTable() *experiments.Table {
	t := &experiments.Table{
		ID:      "fitness",
		Title:   "Simulated figures vs the paper's published values",
		Note:    "MAPE over nonzero-reference pairs; Pearson r over all pairs; see DESIGN.md §12",
		Columns: []string{"Figure", "rows", "pairs", "MAPE", "tol", "Pearson r", "min r", "verdict"},
	}
	f4 := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
	for _, f := range r.Figures {
		mape, pear := f4(f.MAPE), f4(f.Pearson)
		if f.MAPEDegenerate {
			mape = "n/a"
		}
		if f.PearsonDegenerate {
			pear = "n/a"
		}
		verdict := "ok"
		if !f.Pass {
			verdict = "FAIL"
			if f.Err != "" {
				verdict = "FAIL: " + f.Err
			}
		}
		t.AddRow(f.Figure, strconv.Itoa(f.Rows), strconv.Itoa(f.Pairs),
			mape, f4(f.MAPETol), pear, f4(f.PearsonMin), verdict)
	}
	return t
}

// Text renders the whole report for people: the figure verdict table,
// then each claim with its verdict and measured value.
func (r *Report) Text() string {
	var sb strings.Builder
	sb.WriteString(r.VerdictTable().Render())
	sb.WriteString("\n== claims: the paper's §4 statements vs the regenerated tables ==\n")
	for _, c := range r.Claims {
		mark := "holds"
		if !c.Holds {
			mark = "FAIL "
		}
		fmt.Fprintf(&sb, "[%s] %s: %s\n        measured: %s\n", mark, c.Experiment, c.Statement, c.Measured)
	}
	return sb.String()
}
