package calib

import (
	"strconv"
	"strings"
	"testing"

	"snapbpf/internal/experiments"
)

// FuzzFitness drives the whole paper gate — reference figures and
// claims — over arbitrary regenerated tables. The input is a table in a
// small text layout: the first line is the |-separated header, every
// further non-empty line a |-separated row, key first (AddRow pads or
// truncates it to the header). The invariants:
//
//   - offered under every figure and claim experiment ID, the table
//     never panics Evaluate, every claim reports what it measured, and
//     Pass is exactly "every figure passes and every claim holds";
//   - the table's fully numeric rows, used as their own reference
//     figure with a zero-width band, score MAPE exactly 0 and Pearson
//     exactly 1 whenever those are defined, and pass unless both
//     kernels are degenerate (a structural failure, never a silent
//     pass).
func FuzzFitness(f *testing.F) {
	// Shapes of the regenerated paper tables.
	f.Add("Function|REAP|FaaSnap|SnapBPF|SnapBPF (s)\njson|1.00|1.10|1.00|0.100\nimage|2.15|0.95|1.00|0.300\n")
	f.Add("Function|Linux-NoRA|Linux-RA|REAP|SnapBPF|REAP/SnapBPF\nbfs|1|1|4|1|5.9x\nbert|20|3|16|1.7|9.4x\n")
	f.Add("Function|Linux-RA|PVPTEs|SnapBPF\nimage|1.00|0.42|0.33\nrnn|1.00|0.97|0.51\nbert|1.00|0.97|0.50\n")
	f.Add("Function|WS groups|Load (ms)|E2E (s)|Load/E2E\njson|160|0.146|0.1|0.14%\nbert|3000|4.034|1.7|0.24%\n")
	f.Add("Scheme|Mechanism|On-disk WS serialization|In-memory WS dedup|Stateless VM alloc filtering\n" +
		"REAP|uffd|Yes|No|No\nSnapBPF|eBPF|No|Yes|Yes\n")
	// Restricted suites and malformed cells the claims must survive.
	f.Add("Function|REAP/SnapBPF\nbfs|4.5x\njson|1.4x\n")
	f.Add("Function|PVPTEs\nimage\nbert|n/a\n")
	f.Add("")
	f.Add("Key|A\nx|1\nx|2\n")
	f.Add("Key|A|A\n|1|2\nx|NaN|+Inf\n")
	ids := map[string]bool{}
	for _, rf := range References() {
		ids[rf.ID] = true
	}
	for _, c := range paperClaims {
		ids[c.experiment] = true
	}
	f.Fuzz(func(t *testing.T, src string) {
		lines := strings.Split(src, "\n")
		tbl := &experiments.Table{Columns: strings.Split(lines[0], "|")}
		for _, l := range lines[1:] {
			if l != "" {
				tbl.AddRow(strings.Split(l, "|")...)
			}
		}

		tables := map[string]*experiments.Table{}
		for id := range ids {
			tables[id] = tbl
		}
		for _, opts := range []Options{{}, {AllowMissingRows: true}} {
			rep, err := Evaluate(tables, References(), opts)
			if err != nil {
				t.Fatalf("every ID offered: %v", err)
			}
			pass := true
			for _, ff := range rep.Figures {
				pass = pass && ff.Pass
			}
			for _, c := range rep.Claims {
				if c.Measured == "" {
					t.Fatalf("claim %q measured nothing", c.Statement)
				}
				pass = pass && c.Holds
			}
			if rep.Pass != pass || len(rep.Claims) != len(paperClaims) {
				t.Fatalf("Pass = %v over %d claims, want %v over %d", rep.Pass, len(rep.Claims), pass, len(paperClaims))
			}
		}

		self, ok := selfReference(tbl)
		if !ok {
			return
		}
		var vals []float64
		for _, row := range self.Rows {
			vals = append(vals, row.Vals...)
		}
		if m, _, err := MAPE(vals, vals); err == nil && m != 0 {
			t.Fatalf("MAPE(x,x) = %v, want exactly 0", m)
		}
		if r, err := Pearson(vals, vals); err == nil && r != 1 {
			t.Fatalf("Pearson(x,x) = %v, want exactly 1", r)
		}
		// Rebuild the figure as a results table and self-evaluate.
		// FormatFloat 'g'/-1 round-trips exactly, so the engine is
		// comparing bit-identical series.
		st := &experiments.Table{ID: self.ID, Columns: append([]string{"key"}, self.Columns...)}
		for _, row := range self.Rows {
			cells := []string{row.Key}
			for _, v := range row.Vals {
				cells = append(cells, strconv.FormatFloat(v, 'g', -1, 64))
			}
			st.AddRow(cells...)
		}
		rep, err := Evaluate(map[string]*experiments.Table{self.ID: st}, []RefFigure{self}, Options{})
		if err != nil {
			t.Fatalf("self-evaluate: %v", err)
		}
		ff := rep.Figures[0]
		if ff.Err != "" {
			// Only both-kernels-degenerate may fail structurally.
			if !ff.MAPEDegenerate || !ff.PearsonDegenerate || !strings.Contains(ff.Err, "degenerate") {
				t.Fatalf("unexpected structural failure: %+v", ff)
			}
			return
		}
		if !ff.Pass {
			t.Fatalf("self-comparison failed: %+v", ff)
		}
	})
}

// selfReference turns the table's fully numeric, uniquely keyed rows
// into a reference figure with a zero-width band. It reports false
// when the header has an empty or repeated value column (which a
// reference figure may not have) or no row qualifies.
func selfReference(tbl *experiments.Table) (RefFigure, bool) {
	ref := RefFigure{ID: "self", MAPETol: 0, PearsonMin: 1, Columns: tbl.Columns[1:]}
	cols := map[string]bool{"key": true}
	for _, c := range ref.Columns {
		if c == "" || cols[c] {
			return ref, false
		}
		cols[c] = true
	}
	keys := map[string]bool{}
rows:
	for _, r := range tbl.Rows {
		if r[0] == "" || keys[r[0]] {
			continue
		}
		vals := make([]float64, len(ref.Columns))
		for i, cell := range r[1:] {
			v, err := ParseValue(cell)
			if err != nil {
				continue rows
			}
			vals[i] = v
		}
		keys[r[0]] = true
		ref.Rows = append(ref.Rows, RefRow{Key: r[0], Vals: vals})
	}
	return ref, len(ref.Columns) > 0 && len(ref.Rows) > 0
}
