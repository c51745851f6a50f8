// Command bench is the repository's end-to-end benchmark. It drives
// the simulator's public entry points, experiments.Run and cluster.Run,
// over four seeded workloads and reports host-clock metrics (how fast
// the simulator runs) next to simulated-clock metrics (what the paper's
// figures report).
//
//	bash bench/run.sh -seed 1                 # every workload, one round each
//	bash bench/run.sh -workload region -seed 2 -seconds 20
//	bash bench/run.sh -seed 1 -trace 1        # per-layer metrics
//
// Each workload runs in a child process of its own, so its peak RSS is
// its own. The child prints one "workload metric value unit" line per
// metric, writes <out>/<workload>.json, and ends with a one-line JSON
// summary. It exits non-zero if any output is wrong. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupsPerRound is how many set-ups are timed before each round;
// setup_s is the median of them all. Spread through the run, the
// samples outlast the bursts of load from other tenants that moved a
// median of set-ups timed back to back by up to 40%.
const setupsPerRound = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	child    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all four)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed; 1 reproduces the paper suite")
	fs.Float64Var(&o.seconds, "seconds", 0, "measure for about this long; at least one round runs")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.StringVar(&o.out, "out", "out", "directory for <workload>.json, spans and profiles")
	fs.BoolVar(&o.child, "child", false, "run one workload in this process (used by the parent)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := o.validate(fs.Args()); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.child {
		def, _ := lookupWorkload(o.workload)
		return runChild(def, o, stdout, stderr)
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	return runParent(names, o, stderr)
}

func (o options) validate(rest []string) error {
	if len(rest) > 0 {
		return fmt.Errorf("unexpected arguments %q", rest)
	}
	if o.workload != "" {
		if _, err := lookupWorkload(o.workload); err != nil {
			return err
		}
	} else if o.child {
		return fmt.Errorf("-child needs -workload")
	}
	if o.seed < 1 {
		return fmt.Errorf("-seed must be >= 1, got %d", o.seed)
	}
	if !(o.seconds >= 0 && o.seconds <= 3600) {
		return fmt.Errorf("-seconds must be in [0, 3600], got %v", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	return nil
}

// runParent runs each workload in a child process, one at a time.
func runParent(names []string, o options, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, w := range names {
		cmd := exec.Command(exe, "-child", "-workload", w,
			"-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(o.trace), "-out", o.out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		// The child dies with the parent rather than outliving it.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", w, err)
			status = 1
		}
	}
	return status
}

// result is the document a child writes to <out>/<workload>.json.
type result struct {
	Workload    string    `json:"workload"`
	Seed        int64     `json:"seed"`
	Trace       bool      `json:"trace"`
	Seconds     float64   `json:"seconds"`
	Git         string    `json:"git"`
	Go          string    `json:"go"`
	Nproc       int       `json:"nproc"`
	Workers     int       `json:"workers"`
	RoundsCPUS  []float64 `json:"rounds_cpu_s"`
	RoundsWallS []float64 `json:"rounds_wall_s"`
	TracedCPUS  []float64 `json:"traced_rounds_cpu_s,omitempty"`
	Correct     bool      `json:"correct"`
	Error       string    `json:"error,omitempty"`
	Attempted   int       `json:"attempted"`
	Failed      int       `json:"failed"`
	Metrics     metrics   `json:"metrics"`
	Layers      metrics   `json:"layers,omitempty"`
}

func runChild(def *workloadDef, o options, stdout, stderr io.Writer) int {
	res := &result{
		Workload: def.name, Seed: o.seed, Trace: o.trace == 1, Seconds: o.seconds,
		Git: os.Getenv("SNAPBENCH_GIT"), Go: runtime.Version(),
		Nproc: runtime.NumCPU(), Workers: def.workers(),
		Metrics: metrics{},
	}
	if res.Git == "" {
		res.Git = "unknown"
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	err := measureWorkload(def, o, res)
	res.Correct = err == nil
	if err != nil {
		res.Error = err.Error()
		fmt.Fprintf(stderr, "bench: workload %s: %v\n", def.name, err)
	}
	if werr := writeJSON(filepath.Join(o.out, def.name+".json"), res); werr != nil {
		fmt.Fprintln(stderr, "bench:", werr)
		return 1
	}
	printResult(stdout, res)
	if err != nil {
		return 1
	}
	return 0
}

// measureWorkload fills res: set-up, the untraced rounds and, with
// -trace 1, the traced rounds.
func measureWorkload(def *workloadDef, o options, res *result) error {
	p, s, err := timeSetUp(def, o.seed)
	if err != nil {
		return err
	}
	setups := []float64{s}
	sampleSetUps := func() error {
		for i := 0; i < setupsPerRound; i++ {
			_, s, err := timeSetUp(def, o.seed)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
		return nil
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 1 {
		budget /= 2
	}

	gc0, alloc0 := readRuntime()
	m, err := measure(p, res.Workers, budget, nil, 0, sampleSetUps)
	res.Attempted, res.Failed = m.attempted(p)
	if err != nil {
		return err
	}
	gc1, alloc1 := readRuntime()
	res.RoundsCPUS, res.RoundsWallS = seconds(m.cpu), seconds(m.wall)
	hostS := median(res.RoundsCPUS)
	t := tallyRound(p, m.outs)
	for name, v := range m.sim {
		res.Metrics[name] = v
	}
	res.Metrics.host("host_s", hostS, "s")
	res.Metrics.host("invocations_per_s", float64(t.completed)/hostS, "1/s")
	res.Metrics.host("setup_s", median(setups), "s")
	res.Metrics.host("peak_rss_mib", median(m.rss), "MiB")
	if o.trace == 0 {
		return nil
	}

	res.Layers = metrics{}
	rounds := float64(len(m.wall))
	res.Layers.host("runtime.gc_cpu_s", (gc1-gc0)/rounds, "s")
	res.Layers.host("runtime.alloc_gib", (alloc1-alloc0)/rounds/(1<<30), "GiB")
	tm, err := traced(p, budget, o.out, res)
	if tm != nil {
		a, f := tm.attempted(p)
		res.Attempted, res.Failed = res.Attempted+a, res.Failed+f
	}
	if err != nil {
		return err
	}
	if err := sameMetrics(m.sim, tm.sim); err != nil {
		return fmt.Errorf("traced run differs from untraced run: %w", err)
	}
	tt := tallyRound(p, tm.outs)
	obsLayerMetrics(tt, res.Layers)
	res.Layers.host("sim.events_per_host_s", float64(tt.simEvents)/hostS, "1/s")
	res.Layers.host("trace_overhead_frac", median(res.TracedCPUS)/hostS-1, "ratio")
	return nil
}

// timeSetUp builds the workload's inputs and returns them with the CPU
// seconds it took. It starts from a collected heap and keeps the
// collector off: at a few milliseconds, a collection cycle landing
// inside a set-up moved it by up to five times.
func timeSetUp(def *workloadDef, seed int64) (*plan, float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	t := cpuTime()
	p, err := buildPlan(def, seed)
	return p, (cpuTime() - t).Seconds(), err
}

// traced runs the traced rounds under a CPU profile, writes the
// profile and the spans to out, and attributes the profile's samples
// to layers.
func traced(p *plan, budget time.Duration, out string, res *result) (*measured, error) {
	profile := filepath.Join(out, p.def.name+".cpu.pprof")
	f, err := os.Create(profile)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	root := tr.begin("workload:"+p.def.name, 0)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	tm, err := measure(p, res.Workers, budget, tr, root, nil)
	pprof.StopCPUProfile()
	tr.end(root)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = writeJSON(filepath.Join(out, p.def.name+".spans.json"), tr.spans)
	}
	if err != nil {
		return tm, err
	}
	res.TracedCPUS = seconds(tm.cpu)
	top, err := exec.Command("go", "tool", "pprof", "-top", "-unit=ms", "-nodecount=100000",
		"-nodefraction=0", "-edgefraction=0", "-show=^snapbpf/", profile).Output()
	if err != nil {
		return tm, fmt.Errorf("go tool pprof %s: %w", profile, err)
	}
	layers, err := layerSeconds(string(top))
	if err != nil {
		return tm, err
	}
	for layer, s := range layers {
		res.Layers.host(layer+".host_s", s/float64(len(tm.wall)), "s")
	}
	return tm, nil
}

// attempted counts the simulated invocations the measured rounds ran
// and how many of them were in cells that failed.
func (m *measured) attempted(p *plan) (attempted, failed int) {
	if m == nil || m.outs == nil {
		return 0, 0
	}
	t := tallyRound(p, m.outs)
	per := t.completed + t.failed
	return per * max(len(m.wall), 1), t.failed
}

func readRuntime() (gcCPUSeconds, allocBytes float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), float64(s[1].Value.Uint64())
}

// resetPeakRSS resets this process's VmHWM to its current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// cpuTime is the CPU time of every thread of this process. Host-clock
// metrics use it rather than wall time: a kernel with paravirtual steal
// accounting leaves out the time the hypervisor gives the VM's CPUs to
// other guests, which on a shared VM stretched wall time four times.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // getrusage of the calling process cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads this process's VmHWM.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints one line per metric, then the one-line summary:
// the gated end-to-end metrics for an untraced run, every per-layer
// metric for a traced one.
func printResult(w io.Writer, res *result) {
	printMetrics(w, res.Workload, res.Metrics)
	printMetrics(w, res.Workload, res.Layers)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	if res.Trace {
		for name, m := range res.Layers {
			summary.Metrics[name] = value{m.Value, m.Unit}
		}
	} else {
		for _, name := range gated {
			if m, ok := res.Metrics[name]; ok {
				summary.Metrics[name] = value{m.Value, m.Unit}
			}
		}
	}
	b, _ := json.Marshal(summary) // a struct of numbers and strings always marshals
	fmt.Fprintf(w, "%s\n", b)
}

func printMetrics(w io.Writer, workload string, m metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := m[name]
		note := ""
		if v.Note != "" {
			note = " (" + v.Note + ")"
		}
		fmt.Fprintf(w, "%s %s %s %s%s\n", workload, name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit, note)
	}
}
