package calib

import (
	"reflect"
	"testing"

	"snapbpf/internal/obs"
	"snapbpf/internal/workload"
)

func jsonFn(t *testing.T) workload.Function {
	t.Helper()
	fn, err := workload.ByName("json")
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// The recorded schedule replayed through the override path must land
// on the recorded E2E exactly — delta 0, not approximately 0. This is
// the replay credibility check: if the identity counterfactual cannot
// reproduce the measurement, no counterfactual can be trusted.
func TestReplayRecordedDeltaZero(t *testing.T) {
	rep, err := Replay(jsonFn(t), ReplayConfig{K: 2, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups == 0 || rep.BaseE2E == 0 {
		t.Fatalf("empty base run: %+v", rep)
	}
	if len(rep.Decisions) == 0 {
		t.Fatal("no decisions extracted from the trace")
	}
	if len(rep.Alternatives) < 2 {
		t.Fatalf("want the recorded schedule plus alternatives, got %d", len(rep.Alternatives))
	}
	rec := rep.Alternatives[0]
	if rec.Name != "recorded" {
		t.Fatalf("Alternatives[0] = %q, want recorded", rec.Name)
	}
	if rec.Delta != 0 {
		t.Fatalf("recorded schedule replayed with delta %v, want exactly 0", rec.Delta)
	}
	if rec.E2E != rep.BaseE2E {
		t.Fatalf("recorded E2E %v != base %v", rec.E2E, rep.BaseE2E)
	}
	for i, p := range rec.Perm {
		if p != i {
			t.Fatalf("recorded perm is not the identity at %d: %d", i, p)
		}
	}
}

// Replay must produce deep-equal reports across pool widths —
// decisions, alternatives, E2Es and deltas, everything.
func TestReplayDeterministic(t *testing.T) {
	if raceEnabled {
		t.Skip("repeated full cells; the non-race suite covers determinism")
	}
	fn := jsonFn(t)
	run := func(parallel int) *ReplayReport {
		rep, err := Replay(fn, ReplayConfig{K: 2, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(1)
	if got := run(3); !reflect.DeepEqual(got, base) {
		t.Errorf("parallel-3: replay diverged:\n got %+v\nwant %+v", got, base)
	}
}

// ExtractDecisions on an untraced or nil report yields nothing.
func TestExtractDecisionsEmpty(t *testing.T) {
	if ds := ExtractDecisions(nil); ds != nil {
		t.Errorf("nil report: %v", ds)
	}
	if ds := ExtractDecisions(&obs.Report{}); ds != nil {
		t.Errorf("untraced report: %v", ds)
	}
}

func TestBuildAlternativesTruncation(t *testing.T) {
	rep, err := Replay(jsonFn(t), ReplayConfig{K: 1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Alternatives) != 2 {
		t.Fatalf("K=1: got %d alternatives, want recorded + 1", len(rep.Alternatives))
	}
}

// A negative K is an error, not the default.
func TestReplayRejectsNegativeK(t *testing.T) {
	if rep, err := Replay(jsonFn(t), ReplayConfig{K: -5, Parallel: 1}); err == nil {
		t.Fatalf("K=-5 accepted, replayed %d alternatives", len(rep.Alternatives))
	}
}
