package calib

import (
	"fmt"
	"strings"

	"snapbpf/internal/experiments"
	"snapbpf/internal/workload"
)

// claim is one checkable statement from the paper's §4 text. The
// reproduction targets shapes — who wins, by roughly what factor — so
// each claim is a band, not an exact number; the bands come straight
// from the paper's text and figures. Table 1 has no claim: its
// reference figure already fails on any single flipped cell
// (TestTable1SingleFlip).
type claim struct {
	experiment string
	statement  string
	// check inspects the regenerated table and returns the measured
	// value plus whether the claim's band holds.
	check func(t *experiments.Table) (measured string, holds bool)
}

// value parses the cell at (row key, column name).
func value(t *experiments.Table, key, col string) (float64, error) {
	r, c := row(t, key), column(t, col)
	switch {
	case r == nil:
		return 0, fmt.Errorf("no row %q", key)
	case c < 0:
		return 0, fmt.Errorf("no column %q", col)
	case c >= len(r):
		return 0, fmt.Errorf("row %q is short of column %q", key, col)
	}
	return ParseValue(r[c])
}

// colValues parses every numeric cell of the named column, skipping
// cells that do not parse (and every row, if there is no such column).
func colValues(t *experiments.Table, col string) []float64 {
	c := column(t, col)
	if c < 0 {
		return nil
	}
	var vs []float64
	for _, r := range t.Rows {
		if c >= len(r) {
			continue
		}
		if v, err := ParseValue(r[c]); err == nil {
			vs = append(vs, v)
		}
	}
	return vs
}

func mean(vs []float64) float64 {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func maxOf(vs []float64) float64 {
	best := vs[0]
	for _, v := range vs[1:] {
		best = max(best, v)
	}
	return best
}

// paperClaims lists every claim in paper order.
var paperClaims = []claim{
	{
		experiment: "fig3a",
		statement:  "§4 Latency: SnapBPF 'matches and in some cases outperforms' FaaSnap and outperforms REAP for a single instance",
		check: func(t *experiments.Table) (string, bool) {
			// The claim is about the suite mean; on a subset a single
			// close function decides it, so it is vacuous there.
			suite := workload.Names()
			ran := 0
			for _, name := range suite {
				if row(t, name) != nil {
					ran++
				}
			}
			if ran < len(suite) {
				return fmt.Sprintf("%d of %d suite functions in table", ran, len(suite)), true // vacuous on restricted suites
			}
			reap, fs := colValues(t, "REAP"), colValues(t, "FaaSnap")
			if len(reap) == 0 || len(fs) == 0 {
				return "no numeric REAP/FaaSnap cells", false
			}
			// Normalized to SnapBPF: both means >= ~1.
			r, f := mean(reap), mean(fs)
			return fmt.Sprintf("mean REAP=%.2fx, FaaSnap=%.2fx of SnapBPF", r, f), r >= 1.0 && f >= 0.95
		},
	},
	{
		experiment: "fig3b",
		statement:  "§4 Latency: for large working sets (bert), SnapBPF achieves ~8x lower E2E latency than REAP at 10 concurrent instances",
		check: func(t *experiments.Table) (string, bool) {
			if row(t, "bert") == nil {
				// Restricted suite: fall back to the best ratio.
				vs := colValues(t, "REAP/SnapBPF")
				if len(vs) == 0 {
					return "no bert row", false
				}
				v := maxOf(vs)
				return fmt.Sprintf("max REAP/SnapBPF=%.1fx (bert not in suite)", v), v >= 4
			}
			v, err := value(t, "bert", "REAP/SnapBPF")
			if err != nil {
				return err.Error(), false
			}
			return fmt.Sprintf("bert REAP/SnapBPF = %.1fx", v), v >= 5 && v <= 14
		},
	},
	{
		experiment: "fig3c",
		statement:  "§4 Memory: SnapBPF reduces memory usage by up to 6x for large-WS functions (bfs, bert) at 10 concurrent instances",
		check: func(t *experiments.Table) (string, bool) {
			var vs []float64
			for _, name := range []string{"bfs", "bert"} {
				if row(t, name) == nil {
					continue
				}
				v, err := value(t, name, "REAP/SnapBPF")
				if err != nil {
					return err.Error(), false
				}
				vs = append(vs, v)
			}
			if len(vs) == 0 {
				return "bfs/bert not in suite", true // vacuous on restricted suites
			}
			v := maxOf(vs)
			return fmt.Sprintf("max memory reduction = %.1fx", v), v >= 4 && v <= 9
		},
	},
	{
		experiment: "fig4",
		statement:  "§4 Breakdown: PV PTE marking alone improves allocation-heavy functions (image) by more than 2x over Linux-RA",
		check: func(t *experiments.Table) (string, bool) {
			if row(t, "image") == nil {
				return "image not in suite", true // vacuous on restricted suites
			}
			v, err := value(t, "image", "PVPTEs")
			if err != nil {
				return err.Error(), false
			}
			return fmt.Sprintf("image PVPTEs = %.2f of Linux-RA", v), v <= 0.5
		},
	},
	{
		experiment: "fig4",
		statement:  "§4 Breakdown: model-serving functions (rnn, bert) benefit only minimally from PV PTE marking",
		check: func(t *experiments.Table) (string, bool) {
			var out []string
			ok := true
			for _, name := range []string{"rnn", "bert"} {
				if row(t, name) == nil {
					continue
				}
				v, err := value(t, name, "PVPTEs")
				if err != nil {
					return err.Error(), false
				}
				out = append(out, fmt.Sprintf("%s=%.2f", name, v))
				ok = ok && v >= 0.80
			}
			if len(out) == 0 {
				return "rnn/bert not in suite", true // vacuous on restricted suites
			}
			return strings.Join(out, " "), ok
		},
	},
	{
		experiment: "overheads",
		statement:  "§4 Overheads: loading the offsets into the kernel via the eBPF map is <1% of E2E latency on average (~1-2ms)",
		check: func(t *experiments.Table) (string, bool) {
			pct, ms := colValues(t, "Load/E2E"), colValues(t, "Load (ms)")
			if len(pct) == 0 || len(ms) == 0 {
				return "no numeric Load/E2E and Load (ms) cells", false
			}
			return fmt.Sprintf("mean load = %.3fms, %.2f%% of E2E", mean(ms), mean(pct)), mean(pct) < 1.0
		},
	},
}
