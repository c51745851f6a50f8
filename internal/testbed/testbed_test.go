package testbed

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/obs"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/sim"
	"snapbpf/internal/store"
	"snapbpf/internal/vmm"
	"snapbpf/internal/workload"
)

func tinyFn(name string) workload.Function {
	return workload.Function{
		Name: name, MemMiB: 64, StateMiB: 32, WSMiB: 8, WSRegions: 12,
		AllocMiB: 6, ComputeMs: 10, WriteFrac: 0.2, Seed: 7,
	}
}

var linuxRA = Scheme{Name: "Linux-RA", New: func() prefetch.Prefetcher { return prefetch.NewLinuxRA() }}

// coldStarts runs n concurrent cold starts of f and returns them in
// index order, failing the test on any error.
func coldStarts(t *testing.T, h *Host, f *Fn, n int) []Sandbox {
	t.Helper()
	sbs := make([]Sandbox, n)
	errs := make([]error, n)
	for i := range sbs {
		i := i
		h.Eng.Go("vm", func(p *sim.Proc) {
			sbs[i], errs[i] = h.ColdStart(p, f, "vm", 0, f.Env.InvokeTrace)
		})
	}
	h.Eng.Run()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return sbs
}

// An armed host hands the checker's digest out of every cold start —
// equal for identical inputs — and its recorder and checker reports
// out of Finish, once the sandboxes are gone.
func TestArmedColdStart(t *testing.T) {
	h := Arm(vmm.NewHost(blockdev.MicronSATA5300()), "", Arming{Check: true, Obs: &obs.Config{Metrics: true}})
	f := h.Stage(NewFunc(tinyFn("tiny"), linuxRA))
	if err := Record(0, h); err != nil {
		t.Fatal(err)
	}
	sbs := coldStarts(t, h, f, 2)
	if sbs[0].Digest == 0 || sbs[0].Digest != sbs[1].Digest {
		t.Fatalf("digests %016x, %016x: want equal and nonzero", sbs[0].Digest, sbs[1].Digest)
	}
	if sbs[0].Stats.E2E <= 0 {
		t.Fatalf("E2E %v", sbs[0].Stats.E2E)
	}
	for _, sb := range sbs {
		sb.VM.Shutdown()
	}
	rep, counts, err := h.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Metrics() == nil || counts == nil || counts.Prepares != 2 || counts.GuestAccesses == 0 {
		t.Fatalf("Finish = %v, %+v; want a metrics report and a tally of the run", rep, counts)
	}
}

// Stage generates one trace for the record and the measured runs, and
// neither a record nor a cold start writes to it.
func TestStagedTraceSharedAndReadOnly(t *testing.T) {
	h := Arm(vmm.NewHost(blockdev.MicronSATA5300()), "", Arming{Check: true})
	f := h.Stage(NewFunc(tinyFn("tiny"), linuxRA))
	tr := f.Env.InvokeTrace
	if f.Env.RecordTrace != tr {
		t.Fatal("record and invoke traces are separate copies")
	}
	ops := slices.Clone(tr.Ops)
	if err := Record(0, h); err != nil {
		t.Fatal(err)
	}
	for _, sb := range coldStarts(t, h, f, 2) {
		sb.VM.Shutdown()
	}
	if !slices.Equal(tr.Ops, ops) {
		t.Fatal("the record or a cold start changed the shared trace's ops")
	}
}

// An unarmed host attaches nothing: no injector, checker, recorder or
// chunk cache, a zero digest, and nothing to report.
func TestUnarmedHost(t *testing.T) {
	h := Arm(vmm.NewHost(blockdev.MicronSATA5300()), "", Arming{})
	if h.Inj != nil || h.Chk != nil || h.Rec != nil || h.Chunks != nil || h.Remote != nil {
		t.Fatalf("unarmed host has attachments: %+v", h)
	}
	f := h.Stage(NewFunc(tinyFn("tiny"), linuxRA))
	if f.Bind != nil || f.Env.ChunkPlan != nil || len(f.Env.Observers) != 0 {
		t.Fatalf("local-SSD staging bound a store or observers: %+v", f)
	}
	if err := Record(0, h); err != nil {
		t.Fatal(err)
	}
	sb := coldStarts(t, h, f, 1)[0]
	if sb.Digest != 0 {
		t.Fatalf("digest %016x without a checker", sb.Digest)
	}
	sb.VM.Shutdown()
	if rep, counts, err := h.Finish(); rep != nil || counts != nil || err != nil {
		t.Fatalf("Finish = %v, %v, %v; want nothing", rep, counts, err)
	}
}

// failingRecord is Linux-RA with a record phase that fails.
type failingRecord struct{ prefetch.Prefetcher }

func (failingRecord) Record(*sim.Proc, *prefetch.Env) error { return errors.New("record exploded") }

// Record walks hosts and their functions in staging order, stops at
// the first failure, and names it by host and function.
func TestRecordStopsAtFirstFailure(t *testing.T) {
	eng := sim.NewEngine()
	a := Arm(vmm.NewHostOnEngine(eng, blockdev.MicronSATA5300()), "a", Arming{})
	b := Arm(vmm.NewHostOnEngine(eng, blockdev.MicronSATA5300()), "b", Arming{})
	recorded := 0
	counting := Scheme{Name: "counting", New: func() prefetch.Prefetcher {
		recorded++
		return prefetch.NewLinuxRA()
	}}
	one, two := NewFunc(tinyFn("one"), counting), NewFunc(tinyFn("two"), Scheme{Name: "failing", New: func() prefetch.Prefetcher {
		return failingRecord{prefetch.NewLinuxRA()}
	}})
	three := NewFunc(tinyFn("three"), counting)
	recorded = 0 // NewFunc asks an instance for its restore config; count Stage's alone
	a.Stage(one)
	b.Stage(two)
	staged := b.Stage(three)
	err := Record(0, a, b)
	if err == nil || !strings.Contains(err.Error(), "b/two") || !strings.Contains(err.Error(), "record exploded") {
		t.Fatalf("Record error %v: want the failure of b/two", err)
	}
	if got := staged.Env.SnapInode.Name(); got != "b/three.snapmem" {
		t.Fatalf("second staged file on b is %q", got)
	}
	if recorded != 2 {
		t.Fatalf("%d counting schemes built, want 2", recorded)
	}
}

// The measured phase starts a cold chunk cache empty and a warm one
// holding every chunk of every staged function, preloaded through the
// normal fetch path.
func TestRecordStartsChunkCacheTiers(t *testing.T) {
	for _, tier := range []store.Tier{store.TierCold, store.TierWarm} {
		h := Arm(vmm.NewHost(blockdev.MicronSATA5300()), "", Arming{
			Check: true, Store: &store.Setup{Tier: tier, Policy: store.PolicyDemand},
		})
		f := h.Stage(NewFunc(tinyFn("tiny"), linuxRA))
		if f.Bind == nil || f.Env.ChunkPlan == nil {
			t.Fatalf("%v: no chunk binding", tier)
		}
		if err := Record(0, h); err != nil {
			t.Fatal(err)
		}
		resident := len(h.Chunks.CachedChunks())
		if tier == store.TierCold && resident != 0 {
			t.Errorf("cold tier starts with %d resident chunks", resident)
		}
		if tier == store.TierWarm && (resident == 0 || int64(resident) != h.Chunks.Stats().Fetches) {
			t.Errorf("warm tier starts with %d resident chunks after %d fetches",
				resident, h.Chunks.Stats().Fetches)
		}
		coldStarts(t, h, f, 1)[0].VM.Shutdown()
		if _, _, err := h.Finish(); err != nil {
			t.Fatalf("%v: %v", tier, err)
		}
	}
}
