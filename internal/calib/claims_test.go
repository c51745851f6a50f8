package calib

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"snapbpf/internal/experiments"
	"snapbpf/internal/workload"
)

func tableWith(id string, cols []string, rows ...[]string) *experiments.Table {
	t := &experiments.Table{ID: id, Columns: cols}
	for _, r := range rows {
		t.AddRow(r...)
	}
	return t
}

func claimFor(t *testing.T, id, substr string) claim {
	t.Helper()
	for _, c := range paperClaims {
		if c.experiment == id && strings.Contains(c.statement, substr) {
			return c
		}
	}
	t.Fatalf("no claim for %s containing %q", id, substr)
	return claim{}
}

// refTable renders reference figure id's rows named by keys as a
// regenerated table, so its figure verdict is an exact match.
func refTable(t *testing.T, id string, keys ...string) *experiments.Table {
	t.Helper()
	for _, f := range References() {
		if f.ID != id {
			continue
		}
		tbl := &experiments.Table{ID: id, Columns: append([]string{"Function"}, f.Columns...)}
		for _, k := range keys {
			for _, r := range f.Rows {
				if r.Key != k {
					continue
				}
				cells := []string{k}
				for _, v := range r.Vals {
					cells = append(cells, strconv.FormatFloat(v, 'f', 2, 64))
				}
				tbl.AddRow(cells...)
			}
		}
		return tbl
	}
	t.Fatalf("no reference figure %s", id)
	return nil
}

var (
	fig3bCols = []string{"Function", "Linux-NoRA", "Linux-RA", "REAP", "SnapBPF", "REAP/SnapBPF"}
	fig4Cols  = []string{"Function", "Linux-RA", "PVPTEs", "SnapBPF"}
)

func TestFig3bClaimBands(t *testing.T) {
	c := claimFor(t, "fig3b", "8x")
	mk := func(ratio string) *experiments.Table {
		return tableWith("fig3b", fig3bCols, []string{"bert", "20", "3", "16", "2", ratio})
	}
	if _, ok := c.check(mk("8.0x")); !ok {
		t.Fatal("8x rejected")
	}
	if _, ok := c.check(mk("1.2x")); ok {
		t.Fatal("1.2x accepted")
	}
	if _, ok := c.check(mk("50x")); ok {
		t.Fatal("50x accepted (implausibly large)")
	}
	if m, ok := c.check(tableWith("fig3b", fig3bCols[:5], []string{"bert", "20", "3", "16", "2"})); ok {
		t.Fatalf("table without the ratio column accepted: %s", m)
	}
}

func TestFig4ImageClaim(t *testing.T) {
	c := claimFor(t, "fig4", "image")
	mk := func(pv string) *experiments.Table {
		return tableWith("fig4", fig4Cols, []string{"image", "1.00", pv, "0.35"})
	}
	if _, ok := c.check(mk("0.42")); !ok {
		t.Fatal("2.4x improvement rejected")
	}
	if _, ok := c.check(mk("0.95")); ok {
		t.Fatal("no-improvement accepted")
	}
	if _, ok := c.check(tableWith("fig4", fig4Cols[:2], []string{"image", "1.00"})); ok {
		t.Fatal("image row without a PVPTEs column accepted")
	}
}

func TestOverheadsClaim(t *testing.T) {
	c := claimFor(t, "overheads", "<1%")
	cols := []string{"Function", "WS groups", "Load (ms)", "E2E (s)", "Load/E2E"}
	good := tableWith("overheads", cols,
		[]string{"json", "160", "0.14", "0.1", "0.14%"},
		[]string{"bert", "3000", "2.8", "1.7", "0.16%"})
	if m, ok := c.check(good); !ok {
		t.Fatalf("good overheads rejected: %s", m)
	}
	bad := tableWith("overheads", cols, []string{"json", "160", "9", "0.1", "9.0%"})
	if _, ok := c.check(bad); ok {
		t.Fatal("9% overhead accepted")
	}
}

func TestFig3aClaim(t *testing.T) {
	c := claimFor(t, "fig3a", "matches")
	good := fig3aSuite(workload.Names(), "1.20", "1.05")
	if m, ok := c.check(good); !ok {
		t.Fatalf("good fig3a rejected: %s", m)
	}
	bad := fig3aSuite(workload.Names(), "0.60", "0.70")
	if _, ok := c.check(bad); ok {
		t.Fatal("SnapBPF-losing fig3a accepted")
	}
}

// fig3aSuite is a fig3a table with one row per named function, each
// with the given normalised REAP and FaaSnap latencies.
func fig3aSuite(names []string, reap, faasnap string) *experiments.Table {
	t := tableWith("fig3a", []string{"Function", "REAP", "FaaSnap", "SnapBPF", "SnapBPF (s)"})
	for _, name := range names {
		t.AddRow(name, reap, faasnap, "1.00", "0.1")
	}
	return t
}

func TestFig3cClaim(t *testing.T) {
	c := claimFor(t, "fig3c", "6x")
	mk := func(r1, r2 string) *experiments.Table {
		return tableWith("fig3c", fig3bCols,
			[]string{"bfs", "1", "1", "4", "1", r1},
			[]string{"bert", "1", "1", "8", "1.3", r2})
	}
	if _, ok := c.check(mk("5.9x", "6.3x")); !ok {
		t.Fatal("~6x rejected")
	}
	if _, ok := c.check(mk("1.1x", "1.3x")); ok {
		t.Fatal("no-dedup accepted")
	}
}

func TestFig4MinimalClaim(t *testing.T) {
	c := claimFor(t, "fig4", "minimally")
	good := tableWith("fig4", fig4Cols,
		[]string{"rnn", "1.00", "0.97", "0.51"},
		[]string{"bert", "1.00", "0.95", "0.55"})
	if m, ok := c.check(good); !ok {
		t.Fatalf("minimal-PV rejected: %s", m)
	}
	bad := tableWith("fig4", fig4Cols, []string{"rnn", "1.00", "0.40", "0.35"})
	if _, ok := c.check(bad); ok {
		t.Fatal("rnn with huge PV benefit accepted")
	}
}

// Claims about functions a -funcs subset leaves out keep their
// restricted-suite behaviour: the fig3c and fig4 claims are vacuous
// without bfs/bert and image/rnn/bert, and fig3b falls back to the
// best ratio without bert.
func TestClaimsOnFunctionSubsets(t *testing.T) {
	jsonOnly := tableWith("fig4", fig4Cols, []string{"json", "1.00", "0.90", "0.55"})
	for _, substr := range []string{"image", "minimally"} {
		if m, ok := claimFor(t, "fig4", substr).check(jsonOnly); !ok || !strings.Contains(m, "not in suite") {
			t.Errorf("fig4 %q claim on json only: %q, %v; want vacuous", substr, m, ok)
		}
	}
	// fig3a's suite mean is vacuous short of the whole suite, even where
	// the functions that ran lose on average.
	mean := claimFor(t, "fig3a", "matches")
	suite := workload.Names()
	for _, names := range [][]string{{"json"}, suite[1:]} {
		want := fmt.Sprintf("%d of %d suite functions in table", len(names), len(suite))
		if m, ok := mean.check(fig3aSuite(names, "0.99", "1.08")); !ok || m != want {
			t.Errorf("fig3a claim on %d functions: %q, %v; want vacuous", len(names), m, ok)
		}
	}
	if m, ok := mean.check(fig3aSuite(suite, "0.99", "1.08")); ok {
		t.Errorf("fig3a claim on the full suite at REAP 0.99x holds: %q", m)
	}
	mem := claimFor(t, "fig3c", "6x")
	if m, ok := mem.check(tableWith("fig3c", fig3bCols, []string{"json", "1", "1", "2", "1", "2.4x"})); !ok || m != "bfs/bert not in suite" {
		t.Errorf("fig3c claim on json only: %q, %v; want vacuous", m, ok)
	}
	// Only the large-WS rows count: a json row outside the band is ignored.
	withBfs := tableWith("fig3c", fig3bCols,
		[]string{"json", "1", "1", "2", "1", "2.4x"},
		[]string{"bfs", "1", "1", "4", "1", "5.9x"})
	if m, ok := mem.check(withBfs); !ok || m != "max memory reduction = 5.9x" {
		t.Errorf("fig3c claim on json+bfs: %q, %v", m, ok)
	}
	c := claimFor(t, "fig3b", "8x")
	for _, tc := range []struct {
		ratio string
		holds bool
	}{{"4.5x", true}, {"1.4x", false}} {
		m, ok := c.check(tableWith("fig3b", fig3bCols, []string{"bfs", "1", "1", "4", "1", tc.ratio}))
		if ok != tc.holds || !strings.Contains(m, "bert not in suite") {
			t.Errorf("fig3b fallback at %s: %q, %v; want holds=%v", tc.ratio, m, ok, tc.holds)
		}
	}
	if m, ok := c.check(tableWith("fig3b", fig3bCols)); ok {
		t.Errorf("empty fig3b accepted: %q", m)
	}
}

// A broken claim fails the whole gate even when every figure is inside
// its band.
func TestEvaluateFailsOnBrokenClaim(t *testing.T) {
	tables := map[string]*experiments.Table{
		"fig3a": refTable(t, "fig3a", "json", "image"),
		"fig3b": tableWith("fig3b", fig3bCols, []string{"bert", "20", "3", "16", "2", "1.2x"}),
	}
	rep, err := Evaluate(tables, References(), Options{AllowMissingRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Figures) != 1 || !rep.Figures[0].Pass {
		t.Fatalf("fig3a figure: %+v", rep.Figures)
	}
	var fig3b *ClaimVerdict
	for i, c := range rep.Claims {
		if c.Experiment == "fig3b" {
			fig3b = &rep.Claims[i]
		} else if !c.Holds {
			t.Errorf("claim %q broken: %s", c.Statement, c.Measured)
		}
	}
	if fig3b == nil || fig3b.Holds || fig3b.Measured != "bert REAP/SnapBPF = 1.2x" {
		t.Fatalf("fig3b claim verdict = %+v", fig3b)
	}
	if rep.Pass {
		t.Fatal("report passes with a broken claim")
	}
	if text := rep.Text(); !strings.Contains(text, "[FAIL ] fig3b: ") {
		t.Errorf("report text missing the fig3b FAIL marker:\n%s", text)
	}
}

// Evaluate checks every claim whose table is in the run, skips the
// rest, and errors only when neither a figure nor a claim matches.
func TestEvaluateChecksEveryPresentClaim(t *testing.T) {
	tables := map[string]*experiments.Table{
		"fig3c": tableWith("fig3c", fig3bCols, []string{"bert", "1", "1", "8", "1.3", "6.3x"}),
		"fig4":  tableWith("fig4", fig4Cols, []string{"image", "1.00", "0.42", "0.33"}),
	}
	rep, err := Evaluate(tables, References(), Options{AllowMissingRows: true})
	if err != nil {
		t.Fatal(err)
	}
	// fig3c has one claim and no figure; fig4 has two claims and a figure.
	if len(rep.Claims) != 3 || len(rep.Figures) != 1 {
		t.Fatalf("claims = %+v, figures = %+v", rep.Claims, rep.Figures)
	}
	for _, c := range rep.Claims {
		if !c.Holds {
			t.Errorf("claim unexpectedly broken: %s (%s)", c.Statement, c.Measured)
		}
	}
}

// Figures and claims whose table is not in the run are skipped, not
// failed; a run that matches none of them is an error.
func TestEvaluateSkipsMissingTables(t *testing.T) {
	fig3c := tableWith("fig3c", fig3bCols, []string{"bert", "1", "1", "8", "1.3", "6.3x"})
	rep, err := Evaluate(map[string]*experiments.Table{"fig3c": fig3c}, References(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Figures) != 0 || len(rep.Claims) != 1 || rep.Claims[0].Experiment != "fig3c" || !rep.Pass {
		t.Fatalf("claims = %+v, figures = %+v", rep.Claims, rep.Figures)
	}
	for name, tables := range map[string]map[string]*experiments.Table{
		"no tables":          {},
		"no matching tables": {"ext-devices": fig3c},
	} {
		if rep, err := Evaluate(tables, References(), Options{}); err == nil {
			t.Errorf("%s: want error, got %+v", name, rep)
		}
	}
}

func TestClaimsCoverHeadlineExperiments(t *testing.T) {
	covered := map[string]bool{}
	for _, c := range paperClaims {
		covered[c.experiment] = true
	}
	for _, want := range []string{"fig3a", "fig3b", "fig3c", "fig4", "overheads"} {
		if !covered[want] {
			t.Errorf("no claim for %s", want)
		}
	}
	// table1 is gated by its reference figure alone (TestTable1SingleFlip).
	if covered["table1"] {
		t.Error("table1 has a claim; its reference figure already fails on any flipped cell")
	}
}
