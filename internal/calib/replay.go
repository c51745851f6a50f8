package calib

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"snapbpf/internal/core"
	"snapbpf/internal/experiments"
	"snapbpf/internal/obs"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/sim"
	"snapbpf/internal/snapshot"
	"snapbpf/internal/workload"
)

// Decision is one recorded prefetch decision, extracted from the
// observability event stream (no record-path hooks: the tracer already
// emits these as instant events).
type Decision struct {
	// Seq numbers decisions in record order.
	Seq int
	// Kind is "prefetch-issue" (a SnapBPF prefetch group) or
	// "readahead" (a Linux readahead window / kfunc-issued run).
	Kind string
	// VM names the sandbox (prefetch-issue only).
	VM string
	// File names the inode (readahead only).
	File string
	// Start/NPages is the issued page range.
	Start  int64
	NPages int64
	// At is the sim time the decision was taken.
	At sim.Time
}

// ExtractDecisions walks a run's trace and returns every prefetch
// decision in record order. The run must have been traced
// (obs.Config.Trace); an untraced report yields no decisions.
func ExtractDecisions(rep *obs.Report) []Decision {
	var ds []Decision
	rep.Events(func(ev *obs.Event) {
		if ev.Name != "prefetch-issue" && ev.Name != "readahead" {
			return
		}
		d := Decision{Seq: len(ds), Kind: ev.Name, At: ev.Ts}
		for _, a := range ev.Args() {
			switch a.Key {
			case "vm":
				d.VM = a.Str
			case "file":
				d.File = a.Str
			case "start":
				d.Start = a.Int
			case "pages":
				d.NPages = a.Int
			}
		}
		ds = append(ds, d)
	})
	return ds
}

// Alternative is one counterfactual schedule and its outcome.
type Alternative struct {
	// Name labels the reordering; the first alternative is always
	// "recorded" (the identity permutation — its Delta must be zero, the
	// replay self-check).
	Name string
	// DecisionSeq is the decision a promotion reorders, -1 for global
	// reorderings (recorded/offset-order/reverse).
	DecisionSeq int
	// Perm maps issue position -> recorded group index.
	Perm []int
	// E2E is the cell's mean E2E under this schedule; Delta is E2E
	// minus the recorded schedule's E2E.
	E2E   time.Duration
	Delta time.Duration
}

// ReplayConfig tunes Replay.
type ReplayConfig struct {
	// K bounds the counterfactual alternatives beyond the recorded
	// schedule; 0 means the default 3, and a negative K is an error.
	K int
	// Parallel is the worker-pool width for the alternative runs (0 =
	// one per CPU); results are identical at any width.
	Parallel int
	// NewScheme builds the prefetcher; nil means core.New (full
	// SnapBPF). Replay needs a SnapBPF variant — only it exposes the
	// captured schedule.
	NewScheme func() *core.SnapBPF
	// Cfg is the cell config for every run; N defaults to 1.
	Cfg experiments.Config
}

// ReplayReport is the outcome of one cell's counterfactual replay.
type ReplayReport struct {
	Function  string
	Scheme    string
	Groups    int
	BaseE2E   time.Duration
	Decisions []Decision
	// Alternatives[0] is the recorded schedule replayed through the
	// override path; its Delta is the determinism self-check.
	Alternatives []Alternative
}

// Replay runs fn once under the scheme with tracing armed, extracts
// the recorded prefetch decisions, then re-simulates the cell under
// alternative group orderings: the recorded order itself (which must
// reproduce the recorded E2E exactly — the simulator is deterministic,
// so a nonzero delta there is a bug), per-decision promotions (what if
// this group had been fetched first?), the offset-sorted order and the
// reversed order, truncated to K alternatives after the recorded one.
func Replay(fn workload.Function, rc ReplayConfig) (*ReplayReport, error) {
	k := rc.K
	if k < 0 {
		return nil, fmt.Errorf("calib: replay K must be >= 0, got %d", k)
	}
	if k == 0 {
		k = 3
	}
	newScheme := rc.NewScheme
	if newScheme == nil {
		newScheme = core.New
	}
	cfg := rc.Cfg
	// The base run needs the trace; alternatives don't.
	baseCfg := cfg
	obsCfg := obs.Config{Trace: true}
	if cfg.Obs != nil {
		obsCfg = *cfg.Obs
		obsCfg.Trace = true
	}
	baseCfg.Obs = &obsCfg

	base := newScheme()
	res, err := experiments.Run(fn, experiments.Scheme{
		Name: base.Name(),
		New:  func() prefetch.Prefetcher { return base },
	}, baseCfg)
	if err != nil {
		return nil, fmt.Errorf("calib: replay base run: %w", err)
	}
	ws := base.WorkingSet()
	if ws == nil || len(ws.Groups) == 0 {
		return nil, fmt.Errorf("calib: replay: %s captured no prefetch schedule for %s", res.Scheme, fn.Name)
	}
	groups := ws.Groups

	rep := &ReplayReport{
		Function:  fn.Name,
		Scheme:    res.Scheme,
		Groups:    len(groups),
		BaseE2E:   res.MeanE2E,
		Decisions: ExtractDecisions(res.Obs),
	}
	alts := buildAlternatives(groups, rep.Decisions, k)

	cells := make([]experiments.Cell, len(alts))
	for i := range alts {
		perm := alts[i].Perm
		cells[i] = experiments.Cell{
			Fn: fn,
			Scheme: experiments.Scheme{
				Name: res.Scheme,
				New: func() prefetch.Prefetcher {
					s := newScheme()
					s.ScheduleOverride = func(gs []snapshot.Group) []snapshot.Group {
						return applyPerm(gs, perm)
					}
					return s
				},
			},
			Cfg: cfg,
		}
	}
	results, err := experiments.RunCells(experiments.Options{Parallel: rc.Parallel}, cells)
	if err != nil {
		return nil, fmt.Errorf("calib: replay alternatives: %w", err)
	}
	for i, r := range results {
		alts[i].E2E = r.MeanE2E
		alts[i].Delta = r.MeanE2E - rep.BaseE2E
	}
	rep.Alternatives = alts
	return rep, nil
}

// buildAlternatives assembles the recorded identity plus up to k
// counterfactual permutations: per-decision promotions first (each
// prefetch-issue decision's group moved to the front of the schedule),
// then the offset-sorted and reversed global orders.
func buildAlternatives(groups []snapshot.Group, decisions []Decision, k int) []Alternative {
	n := len(groups)
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	alts := []Alternative{{Name: "recorded", DecisionSeq: -1, Perm: identity}}

	promoted := make(map[int]bool) // group indices already promoted
	for _, d := range decisions {
		if len(alts) > k {
			break
		}
		// Map the decision to the schedule group containing its start:
		// the prefetch path splits a group into bounded readahead
		// windows, so (start, pages) equality would never fire.
		gi := -1
		for i, g := range groups {
			if d.Start >= g.Start && d.Start < g.End() {
				gi = i
				break
			}
		}
		// Skip decisions outside the schedule (demand readahead on other
		// inodes), already-first groups (identical to recorded) and
		// repeat windows of an already-promoted group.
		if gi <= 0 || promoted[gi] {
			continue
		}
		promoted[gi] = true
		perm := make([]int, 0, n)
		perm = append(perm, gi)
		for i := 0; i < n; i++ {
			if i != gi {
				perm = append(perm, i)
			}
		}
		alts = append(alts, Alternative{
			Name:        fmt.Sprintf("decision[%d] group[%d] first", d.Seq, gi),
			DecisionSeq: d.Seq,
			Perm:        perm,
		})
	}
	if len(alts) <= k {
		byOffset := append([]int(nil), identity...)
		sort.SliceStable(byOffset, func(i, j int) bool {
			return groups[byOffset[i]].Start < groups[byOffset[j]].Start
		})
		if !equalPerm(byOffset, identity) {
			alts = append(alts, Alternative{Name: "offset-order", DecisionSeq: -1, Perm: byOffset})
		}
	}
	if len(alts) <= k && n > 1 {
		rev := make([]int, n)
		for i := range rev {
			rev[i] = n - 1 - i
		}
		alts = append(alts, Alternative{Name: "reverse", DecisionSeq: -1, Perm: rev})
	}
	return alts
}

func equalPerm(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// applyPerm reorders gs by perm (issue position i gets recorded group
// perm[i]). A length mismatch means the rerun captured a different
// schedule than the base run — impossible while the simulator is
// deterministic — and panics rather than silently replaying the wrong
// counterfactual.
func applyPerm(gs []snapshot.Group, perm []int) []snapshot.Group {
	if len(perm) != len(gs) {
		panic(fmt.Sprintf("calib: replay schedule drifted: %d groups recorded, %d captured on rerun", len(perm), len(gs)))
	}
	out := make([]snapshot.Group, len(gs))
	for i, p := range perm {
		out[i] = gs[p]
	}
	return out
}

// Table renders the replay outcome with the experiment table formatter.
func (r *ReplayReport) Table() *experiments.Table {
	t := &experiments.Table{
		ID:    "replay",
		Title: fmt.Sprintf("Counterfactual replay: %s / %s", r.Scheme, r.Function),
		Note: fmt.Sprintf("%d groups, %d recorded decisions; delta vs recorded E2E %s",
			r.Groups, len(r.Decisions), r.BaseE2E),
		Columns: []string{"Alternative", "decision", "E2E", "delta"},
	}
	for _, a := range r.Alternatives {
		dec := "-"
		if a.DecisionSeq >= 0 {
			dec = strconv.Itoa(a.DecisionSeq)
		}
		delta := a.Delta.String()
		if a.Delta > 0 {
			delta = "+" + delta
		}
		t.AddRow(a.Name, dec, a.E2E.String(), delta)
	}
	return t
}
