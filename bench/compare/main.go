// Command compare sets two sets of benchmark runs side by side and
// gives each metric of each workload a verdict: improved, unchanged,
// worse or unresolved.
//
//	go -C bench run ./compare baseline/a baseline/b
//
// A set is a directory; every <workload>.json a run wrote below it is
// one run. Directions and bounds come from BENCHMARK.json. The rules:
//
//   - Simulated-clock metrics are deterministic and compare exactly:
//     unchanged only when every run of both sets reads the same value.
//   - A host-clock metric improved when there are at least ten pairs
//     (run i of each set), the second set wins at least nine tenths of
//     them (ties count for neither), and the medians differ by more
//     than the first set's quartile spread.
//   - Otherwise it is worse when its median is worse than the first
//     set's by more than the metric's bound, and unchanged when not,
//     unless the first set's own spread exceeds the bound: then it is
//     unresolved, or unchanged if every run of the second set reads
//     better than every run of the first.
//   - A host-clock metric without a bound is unresolved unless one set
//     wins by the improvement rule.
//
// The exit status is 1 when any verdict is worse.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// runDoc is the part of a run's <workload>.json the comparison reads.
type runDoc struct {
	Workload string `json:"workload"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
		Clock string  `json:"clock"`
	} `json:"metrics"`
	Layers map[string]struct {
		Value float64 `json:"value"`
		Clock string  `json:"clock"`
	} `json:"layers"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("compare", flag.ContinueOnError)
	fset.SetOutput(stderr)
	specPath := fset.String("spec", filepath.Join("..", "BENCHMARK.json"), "BENCHMARK.json with directions and bounds")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if fset.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: compare [-spec BENCHMARK.json] SET_A SET_B")
		return 2
	}
	sp, err := readSpec(*specPath)
	if err == nil {
		var a, b map[string][]values
		if a, err = readSet(fset.Arg(0)); err == nil {
			if b, err = readSet(fset.Arg(1)); err == nil {
				return report(stdout, sp, a, b)
			}
		}
	}
	fmt.Fprintln(stderr, "compare:", err)
	return 2
}

func readSpec(path string) (map[string]specMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]specMetric)
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		out[m.Name] = m
	}
	return out, nil
}

// values is one run's metrics by name, with their clocks.
type values struct {
	v     map[string]float64
	clock map[string]string
}

// readSet reads every run below dir, grouped by workload in path order.
func readSet(dir string) (map[string][]values, error) {
	out := make(map[string][]values)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") || strings.HasSuffix(path, ".spans.json") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r runDoc
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if r.Workload == "" {
			return fmt.Errorf("%s: not a benchmark run", path)
		}
		v := values{v: map[string]float64{}, clock: map[string]string{}}
		for name, m := range r.Metrics {
			v.v[name], v.clock[name] = m.Value, m.Clock
		}
		for name, m := range r.Layers {
			v.v[name], v.clock[name] = m.Value, m.Clock
		}
		out[r.Workload] = append(out[r.Workload], v)
		return nil
	})
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("%s: no runs", dir)
	}
	return out, err
}

func report(w io.Writer, sp map[string]specMetric, a, b map[string][]values) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tclock\truns\tA median [q1, q3]\tB median [q1, q3]\tB wins\tverdict")
	counts := map[string]int{}
	for _, wl := range sortedKeys(a) {
		ra, rb := a[wl], b[wl]
		if len(rb) == 0 {
			continue
		}
		names := map[string]bool{}
		for _, r := range ra {
			for name := range r.v {
				names[name] = true
			}
		}
		for _, name := range sortedKeys(names) {
			xa, xb := column(ra, name), column(rb, name)
			if len(xa) != len(ra) || len(xb) != len(rb) {
				continue // not reported by every run
			}
			clock := ra[0].clock[name]
			lower := sp[name].Better != "higher"
			qa, qb := quartiles(xa), quartiles(xb)
			wins := winFraction(xa, xb, lower)
			var verdict string
			if clock == "sim" {
				verdict = exact(xa, xb, qa[1], qb[1], lower)
			} else {
				verdict = hostVerdict(xa, xb, qa, qb, wins, lower, sp[name].Bound)
			}
			counts[verdict]++
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%.2f\t%s\n",
				wl, name, clock, len(xa), len(xb), qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], wins, verdict)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "improved %d, unchanged %d, worse %d, unresolved %d\n",
		counts["improved"], counts["unchanged"], counts["worse"], counts["unresolved"])
	if counts["worse"] > 0 {
		return 1
	}
	return 0
}

func column(rs []values, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.v[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// better reports whether x reads better than y.
func better(x, y float64, lower bool) bool {
	if lower {
		return x < y
	}
	return x > y
}

// winFraction is the share of pairs (run i of each set) in which B
// reads better than A; ties count for neither.
func winFraction(a, b []float64, lower bool) float64 {
	n := min(len(a), len(b))
	if n == 0 {
		return 0
	}
	wins := 0
	for i := 0; i < n; i++ {
		if better(b[i], a[i], lower) {
			wins++
		}
	}
	return float64(wins) / float64(n)
}

func exact(a, b []float64, ma, mb float64, lower bool) string {
	all := append(append([]float64(nil), a...), b...)
	same := true
	for _, x := range all {
		same = same && x == all[0]
	}
	switch {
	case same:
		return "unchanged"
	case better(mb, ma, lower):
		return "improved"
	case better(ma, mb, lower):
		return "worse"
	}
	return "unresolved"
}

// minPairs is the fewest pairs a claimed gain may rest on.
const minPairs = 10

func hostVerdict(a, b []float64, qa, qb [3]float64, wins float64, lower bool, bound *float64) string {
	spreadA, spreadB := qa[2]-qa[0], qb[2]-qb[0]
	enough := min(len(a), len(b)) >= minPairs
	if enough && wins >= 0.9 && math.Abs(qb[1]-qa[1]) > spreadA && better(qb[1], qa[1], lower) {
		return "improved"
	}
	if bound == nil {
		if enough && winFraction(b, a, lower) >= 0.9 && math.Abs(qa[1]-qb[1]) > spreadB && better(qa[1], qb[1], lower) {
			return "worse"
		}
		return "unresolved"
	}
	worse := (qb[1] - qa[1]) / qa[1]
	if !lower {
		worse = -worse
	}
	switch {
	case spreadA/qa[1] > *bound && allBetter(b, a, lower):
		return "unchanged"
	case spreadA/qa[1] > *bound:
		return "unresolved"
	case worse > *bound:
		return "worse"
	}
	return "unchanged"
}

// allBetter reports whether every value of x reads better than every
// value of y.
func allBetter(x, y []float64, lower bool) bool {
	for _, u := range x {
		for _, v := range y {
			if !better(u, v, lower) {
				return false
			}
		}
	}
	return true
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(data, n=4) does (exclusive method).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
