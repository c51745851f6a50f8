package experiments

import (
	"testing"

	"snapbpf/internal/faults"
	"snapbpf/internal/workload"
)

func chaosTestFunctions(t *testing.T) []workload.Function {
	t.Helper()
	for _, f := range workload.Suite() {
		if f.Name == "json" {
			return []workload.Function{f}
		}
	}
	t.Fatal("json function missing from suite")
	return nil
}

// TestChaosDeterministic is the tentpole acceptance check: two chaos
// runs with the same plan seed must produce byte-identical CSV.
func TestChaosDeterministic(t *testing.T) {
	o := Options{Functions: chaosTestFunctions(t), Parallel: 1}
	chaos := experimentByID(t, "chaos")
	t1, err := chaos(o)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := chaos(o)
	if err != nil {
		t.Fatal(err)
	}
	if t1.CSV() != t2.CSV() {
		t.Fatalf("chaos runs diverged:\n--- first ---\n%s\n--- second ---\n%s", t1.CSV(), t2.CSV())
	}
}

// TestEverySchemeCompletesUnderHeavyFaults checks graceful
// degradation scheme by scheme: with a heavy plan every invocation
// completes (E2E measured for all sandboxes), the injector saw
// activity, and the degraded mean E2E is no better than healthy.
func TestEverySchemeCompletesUnderHeavyFaults(t *testing.T) {
	fn := chaosTestFunctions(t)[0]
	heavy := faults.Heavy(42)
	for _, s := range []Scheme{SchemeLinuxNoRA, SchemeLinuxRA, SchemeREAP, SchemeFaast, SchemeFaaSnap, SchemeSnapBPF} {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			faulty, err := Run(fn, s, Config{N: 4, Faults: &heavy})
			if err != nil {
				t.Fatalf("faulted run errored instead of degrading: %v", err)
			}
			for i, e := range faulty.E2E {
				if e <= 0 {
					t.Fatalf("vm%d did not complete: E2E=%v", i, e)
				}
			}
			if faulty.Faults.Injected() == 0 {
				t.Fatal("heavy plan injected nothing")
			}
			healthy, err := Run(fn, s, Config{N: 4})
			if err != nil {
				t.Fatal(err)
			}
			if healthy.Faults != (faults.Report{}) {
				t.Fatalf("healthy run accumulated a fault report: %+v", healthy.Faults)
			}
			if faulty.MeanE2E < healthy.MeanE2E {
				t.Fatalf("faulted run faster than healthy: %v < %v", faulty.MeanE2E, healthy.MeanE2E)
			}
		})
	}
}

// TestRunRejectsNegativeN covers the runner's argument validation.
func TestRunRejectsNegativeN(t *testing.T) {
	fn := chaosTestFunctions(t)[0]
	if _, err := Run(fn, SchemeLinuxRA, Config{N: -1}); err == nil {
		t.Fatal("negative N accepted")
	}
	if _, err := Run(fn, SchemeLinuxRA, Config{N: 0}); err != nil {
		t.Fatalf("zero N (meaning 1) rejected: %v", err)
	}
}

// TestRunRejectsInvalidFaultPlan covers plan validation at the run
// boundary (NewInjector would panic; Run must return an error).
func TestRunRejectsInvalidFaultPlan(t *testing.T) {
	fn := chaosTestFunctions(t)[0]
	bad := faults.Plan{ReadErrorRate: 2}
	if _, err := Run(fn, SchemeLinuxRA, Config{N: 1, Faults: &bad}); err == nil {
		t.Fatal("invalid fault plan accepted")
	}
}

// TestOptionsFaultsAppliesToCells checks the CLI plumbing: an
// Options-level plan reaches cells without their own, and an explicit
// per-cell disabled plan (the chaos healthy column) wins over it.
func TestOptionsFaultsAppliesToCells(t *testing.T) {
	fn := chaosTestFunctions(t)[0]
	plan := faults.Heavy(7)
	none := faults.Plan{}
	o := Options{Parallel: 1, Faults: &plan}
	rs, err := RunCells(o, []Cell{
		{Fn: fn, Scheme: SchemeLinuxRA, Cfg: Config{N: 1}},
		{Fn: fn, Scheme: SchemeLinuxRA, Cfg: Config{N: 1, Faults: &none}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Faults.Injected() == 0 {
		t.Fatal("Options.Faults did not reach the cell")
	}
	if rs[1].Faults.Injected() != 0 {
		t.Fatal("explicit healthy cell overridden by Options.Faults")
	}
}
