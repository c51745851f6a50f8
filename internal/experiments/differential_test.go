package experiments

import (
	"testing"

	"snapbpf/internal/core"
	"snapbpf/internal/faults"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/workload"
)

// checkedDigest runs one cell with the invariant harness armed and
// returns the guest-memory digest. Any invariant violation fails the
// test through Run's error.
func checkedDigest(t *testing.T, fn workload.Function, s Scheme, cfg Config) uint64 {
	t.Helper()
	cfg.Check = true
	r, err := Run(fn, s, cfg)
	if err != nil {
		t.Fatalf("%s/%s: %v", s.Name, fn.Name, err)
	}
	if r.Digest == 0 {
		t.Fatalf("%s/%s: no digest recorded", s.Name, fn.Name)
	}
	return r.Digest
}

// TestDifferentialSchemes is the differential oracle: every prefetching
// scheme, healthy or under fault injection, must leave the guest with
// memory byte-identical (digest-identical) to pure demand paging —
// prefetching is allowed to change *when* pages arrive, never *what*
// the guest reads.
func TestDifferentialSchemes(t *testing.T) {
	light, heavy := faults.Light(3), faults.Heavy(5)
	plans := map[string]*faults.Plan{"healthy": nil, "light": &light, "heavy": &heavy}
	fns := goldenFunctions(t)
	if fns[0].Name != "json" {
		fns[0], fns[1] = fns[1], fns[0]
	}

	// The small function carries the full matrix: every scheme under
	// every fault preset. The race detector slows runs ~4x and checks
	// scheduling rather than values, so under -race the matrix shrinks
	// to the extremes — the full matrix runs in the ordinary suite.
	fn := fns[0]
	schemes := []Scheme{SchemeLinuxRA, SchemeREAP, SchemeFaast, SchemeFaaSnap, SchemeSnapBPF, SchemePVOnly}
	if raceEnabled {
		plans = map[string]*faults.Plan{"healthy": nil, "heavy": &heavy}
		schemes = []Scheme{SchemeREAP, SchemeSnapBPF}
	}
	for name, plan := range plans {
		want := checkedDigest(t, fn, SchemeLinuxNoRA, Config{N: 2, Faults: plan})
		for _, s := range schemes {
			if got := checkedDigest(t, fn, s, Config{N: 2, Faults: plan}); got != want {
				t.Errorf("%s/%s/%s: digest %016x, demand paging %016x",
					fn.Name, s.Name, name, got, want)
			}
		}
	}

	// The large function gets a reduced healthy pass — its runs
	// dominate wall-clock and the fault paths are already covered.
	if testing.Short() || raceEnabled {
		return
	}
	big := fns[1]
	want := checkedDigest(t, big, SchemeLinuxNoRA, Config{N: 2})
	for _, s := range []Scheme{SchemeREAP, SchemeFaaSnap, SchemeSnapBPF} {
		if got := checkedDigest(t, big, s, Config{N: 2}); got != want {
			t.Errorf("%s/%s: digest %016x, demand paging %016x", big.Name, s.Name, got, want)
		}
	}
}

// TestMetamorphicInvariance checks properties that must not move the
// digest: prefetch schedule permutations, grouping granularity, fault
// injection, sandbox count, allocator drift, and cache pressure all
// change the run's timing and I/O — never its final guest memory.
func TestMetamorphicInvariance(t *testing.T) {
	fn, err := workload.ByName("json")
	if err != nil {
		t.Fatal(err)
	}
	base := checkedDigest(t, fn, SchemeSnapBPF, Config{N: 2})

	offsetOrder := Scheme{Name: "SnapBPF-offorder", New: func() prefetch.Prefetcher {
		s := core.New()
		s.OffsetOrder = true
		return s
	}}
	perPage := Scheme{Name: "SnapBPF-perpage", New: func() prefetch.Prefetcher {
		s := core.New()
		s.DisableGrouping = true
		return s
	}}
	heavy := faults.Heavy(11)

	variants := []struct {
		name   string
		scheme Scheme
		cfg    Config
	}{
		{"offset-ordered prefetch groups", offsetOrder, Config{N: 2}},
		{"per-page prefetch groups", perPage, Config{N: 2}},
		{"heavy fault injection", SchemeSnapBPF, Config{N: 2, Faults: &heavy}},
		{"single sandbox", SchemeSnapBPF, Config{N: 1}},
		{"allocator drift", SchemeSnapBPF, Config{N: 2, AllocDrift: 3}},
		{"cache pressure", SchemeSnapBPF, Config{N: 2, CacheLimitPages: 2048}},
	}
	if raceEnabled {
		// Two representative variants keep -race wall-clock bounded;
		// the ordinary suite runs all six.
		variants = variants[:2]
	}
	for _, v := range variants {
		if got := checkedDigest(t, fn, v.scheme, v.cfg); got != base {
			t.Errorf("%s: digest %016x, baseline %016x", v.name, got, base)
		}
	}
}

// TestPoolExecutionDigest checks that serial and parallel cell pools
// produce identical digests — cells share no state, so scheduling must
// not leak into results.
func TestPoolExecutionDigest(t *testing.T) {
	fn, err := workload.ByName("json")
	if err != nil {
		t.Fatal(err)
	}
	cells := []Cell{}
	for _, s := range []Scheme{SchemeLinuxNoRA, SchemeREAP, SchemeFaaSnap, SchemeSnapBPF} {
		cells = append(cells, Cell{Fn: fn, Scheme: s, Cfg: Config{N: 2}})
	}
	serial, err := RunCells(Options{Parallel: 1, Check: true}, cells)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunCells(Options{Parallel: 4, Check: true}, cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if serial[i].Digest != par[i].Digest {
			t.Errorf("cell %d (%s/%s): serial digest %016x, parallel %016x",
				i, cells[i].Scheme.Name, cells[i].Fn.Name, serial[i].Digest, par[i].Digest)
		}
	}
}
