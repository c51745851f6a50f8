package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"testing"
	"time"

	"snapbpf/internal/experiments"
	"snapbpf/internal/workload"
)

// tiny shrinks a workload to one function at two sandboxes, or a
// two-host region serving twelve requests, keeping every config.
func tiny(def workloadDef) *workloadDef {
	if len(def.fns) > 0 {
		def.fns = def.fns[:1]
		def.n = 2
	}
	if def.region != nil {
		r := *def.region
		r.hosts = 2
		r.requests = 12
		def.region = &r
	}
	return &def
}

func tinyPlan(t *testing.T, def workloadDef, seed int64) *plan {
	t.Helper()
	p, err := buildPlan(tiny(def), seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTailRank(t *testing.T) {
	for _, tc := range []struct {
		n, rank int
		ok      bool
	}{{1, 0, false}, {10, 0, false}, {11, 1, true}, {40, 30, true}, {100, 90, true}} {
		rank, ok := tailRank(tc.n)
		if ok != tc.ok || (ok && rank != tc.rank) {
			t.Errorf("tailRank(%d) = %d, %v; want %d, %v", tc.n, rank, ok, tc.rank, tc.ok)
		}
	}
	// Samples 1..40 ms in reverse: the tail is the 30th smallest, with
	// exactly ten samples above it.
	var ds []time.Duration
	for i := 40; i >= 1; i-- {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	m := metrics{}
	m.latency("cold", ds)
	if got := m["cold_tail_ms"]; got.Value != 30 || got.Note != "n=40 p75.0" {
		t.Errorf("cold_tail_ms = %+v, want 30 ms at n=40 p75.0", got)
	}
	if got := m["cold_p50_ms"].Value; got != 20 {
		t.Errorf("cold_p50_ms = %v, want 20", got)
	}
	m = metrics{}
	m.latency("cold", ds[:10])
	if _, ok := m["cold_tail_ms"]; ok {
		t.Error("ten samples have no sample with ten above it, but a tail was reported")
	}
}

func TestSeedDerivation(t *testing.T) {
	def := workloadDef{name: "seed", fns: []string{"json"}, n: 2,
		configs: []hostConfig{{"local", experiments.SchemeSnapBPF, nil}}}
	run := func(seed int64) *experiments.RunResult {
		p, err := buildPlan(&def, seed)
		if err != nil {
			t.Fatal(err)
		}
		outs := runRound(p, 1, nil, 0)
		if err := verify(p, outs); err != nil {
			t.Fatal(err)
		}
		return outs[0].run
	}
	fn, err := workload.ByName("json")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := experiments.Run(fn, experiments.SchemeSnapBPF, experiments.Config{N: 2, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	one := run(1)
	if !reflect.DeepEqual(one.E2E, direct.E2E) || one.SystemMemory != direct.SystemMemory || one.Digest != direct.Digest {
		t.Errorf("seed 1 differs from the suite's json cell: E2E %v vs %v", one.E2E, direct.E2E)
	}
	if two := run(2); reflect.DeepEqual(two.E2E, one.E2E) {
		t.Errorf("seed 2 reproduced seed 1's E2E %v", one.E2E)
	}

	region, err := lookupWorkload("region")
	if err != nil {
		t.Fatal(err)
	}
	a, b := tinyPlan(t, *region, 1), tinyPlan(t, *region, 2)
	if reflect.DeepEqual(a.arrivals, b.arrivals) {
		t.Error("seeds 1 and 2 generated the same arrivals")
	}
	if a.cells[0].region.Faults.Seed == b.cells[0].region.Faults.Seed {
		t.Error("seeds 1 and 2 generated the same fault plan")
	}
}

// TestTinyWorkloadsRepeat runs a tiny version of every workload twice
// on one worker and once on two: the simulated metrics must not move.
func TestTinyWorkloadsRepeat(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			p := tinyPlan(t, def, 1)
			var got []metrics
			for _, workers := range []int{1, 1, 2} {
				outs := runRound(p, workers, nil, 0)
				if err := verify(p, outs); err != nil {
					t.Fatal(err)
				}
				got = append(got, simMetrics(p, outs))
			}
			for i, m := range got[1:] {
				if err := sameMetrics(got[0], m); err != nil {
					t.Errorf("run %d: %v", i+2, err)
				}
			}
		})
	}
}

func TestVerifyCatchesWrongOutputs(t *testing.T) {
	def, err := lookupWorkload("burst-local")
	if err != nil {
		t.Fatal(err)
	}
	p := tinyPlan(t, *def, 1)
	outs := runRound(p, 2, nil, 0)
	if err := verify(p, outs); err != nil {
		t.Fatal(err)
	}
	r := outs[1].run
	e2e := r.E2E[0]
	r.E2E[0] = time.Millisecond
	if verify(p, outs) == nil {
		t.Error("an E2E below the function's compute time passed")
	}
	r.E2E[0] = e2e
	r.Digest ^= 1
	if verify(p, outs) == nil {
		t.Error("a scheme that left different guest memory passed")
	}
}

func TestLayerGrouping(t *testing.T) {
	top, err := os.ReadFile(filepath.Join("testdata", "pprof_top.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := layerSeconds(string(top))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"guest":    0.6,
		"sim":      0.3,
		"prefetch": 0.45, // prefetch/reap, prefetch/faasnap, core, prefetch
		"ebpf":     0.18, // kprobe, ebpf, ebpf/absint
		"check":    0.09,
		"obs":      0.04,
		"other":    0.04, // units
		"runtime":  0.3,  // samples with no snapbpf frame
	}
	for _, l := range layers {
		if d := got[l] - want[l]; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v s, want %v s", l, got[l], want[l])
		}
	}
	if len(got) != len(layers) {
		t.Errorf("got %d layers, want %d", len(got), len(layers))
	}
	if _, err := layerSeconds("no header"); err == nil {
		t.Error("pprof output without a total was accepted")
	}
}

// TestMetricNames checks the names a traced run of every tiny workload
// reports against BENCHMARK.json: every end-to-end metric it bounds is
// reported, and the per-layer metrics are exactly its per_layer list.
func TestMetricNames(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		slices.Sort(out)
		return out
	}
	got := slices.Clone(gated)
	slices.Sort(got)
	if want := names(spec.EndToEnd); !slices.Equal(got, want) {
		t.Errorf("gated metrics %v, BENCHMARK.json end_to_end has %v", got, want)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, def := range workloads {
		res := &result{Workers: 2, Metrics: metrics{}}
		if err := measureWorkload(tiny(def), options{seed: 1, trace: 1, out: t.TempDir()}, res); err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		for _, name := range gated {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("%s: end-to-end metric %s missing", def.name, name)
			}
		}
		var layerNames []string
		for name := range res.Layers {
			layerNames = append(layerNames, name)
		}
		slices.Sort(layerNames)
		if want := names(spec.PerLayer); !slices.Equal(layerNames, want) {
			t.Errorf("%s: per-layer metrics %v, BENCHMARK.json has %v", def.name, layerNames, want)
		}
		for _, m := range []metrics{res.Metrics, res.Layers} {
			for name := range m {
				if !valid.MatchString(name) {
					t.Errorf("%s: metric name %q", def.name, name)
				}
			}
		}
	}
}
