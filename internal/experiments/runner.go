// Package experiments contains the evaluation harness: it composes
// hosts, snapshots, prefetchers and workloads into the measurements
// behind every table and figure of the paper (§4), and formats them
// as aligned text tables and CSV.
//
// Each run uses a fresh simulated host and the cold-start protocol of
// internal/testbed: record, drop the caches, then measure cold starts.
package experiments

import (
	"fmt"
	"time"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/check"
	"snapbpf/internal/core"
	"snapbpf/internal/faults"
	"snapbpf/internal/obs"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/prefetch/faasnap"
	"snapbpf/internal/prefetch/faast"
	"snapbpf/internal/prefetch/reap"
	"snapbpf/internal/sim"
	"snapbpf/internal/store"
	"snapbpf/internal/testbed"
	"snapbpf/internal/trace"
	"snapbpf/internal/units"
	"snapbpf/internal/vmm"
	"snapbpf/internal/workload"
)

// Scheme is a named prefetcher factory.
type Scheme = testbed.Scheme

// Standard schemes.
var (
	SchemeLinuxNoRA = Scheme{Name: "Linux-NoRA", New: func() prefetch.Prefetcher { return prefetch.NewLinuxNoRA() }}
	SchemeLinuxRA   = Scheme{Name: "Linux-RA", New: func() prefetch.Prefetcher { return prefetch.NewLinuxRA() }}
	SchemeREAP      = Scheme{Name: "REAP", New: func() prefetch.Prefetcher { return reap.New() }}
	SchemeFaast     = Scheme{Name: "Faast", New: func() prefetch.Prefetcher { return faast.New() }}
	SchemeFaaSnap   = Scheme{Name: "FaaSnap", New: func() prefetch.Prefetcher { return faasnap.New() }}
	SchemeSnapBPF   = Scheme{Name: "SnapBPF", New: func() prefetch.Prefetcher { return core.New() }}
	SchemePVOnly    = Scheme{Name: "PVPTEs", New: func() prefetch.Prefetcher { return core.NewPVOnly() }}
)

// RunResult is the measurement of one (scheme, function, concurrency)
// cell.
type RunResult struct {
	Scheme   string
	Function string
	N        int

	// E2E per sandbox; Mean/Max aggregates.
	E2E     []time.Duration
	MeanE2E time.Duration
	MaxE2E  time.Duration

	// MeanPrepare is the prefetcher preparation share of E2E.
	MeanPrepare time.Duration

	// SystemMemory is the system-wide memory footprint (page cache +
	// anonymous) once all invocations completed, before sandbox
	// teardown — the Figure 3c quantity.
	SystemMemory units.ByteSize

	// DeviceBytes/DeviceRequests count invocation-phase storage
	// traffic (record-phase traffic excluded).
	DeviceBytes    int64
	DeviceRequests int64

	// OffsetLoad is SnapBPF's mean eBPF offset-loading time, zero for
	// other schemes.
	OffsetLoad time.Duration

	// WSGroups is the number of contiguous offset groups in SnapBPF's
	// captured schedule, zero for other schemes.
	WSGroups int

	// Evictions counts page-cache reclaim events during the
	// invocation phase (nonzero only with CacheLimitPages set).
	Evictions int64

	// Faults reports what the run's fault injector did (zero value
	// when the run was healthy): injected events, plus the retries and
	// demand-paging fallbacks the stack absorbed them with.
	Faults faults.Report

	// Digest is the checker's fold of final guest-visible memory
	// (state pages only), recorded when Config.Check is set and
	// InputVariance is 0 so all sandboxes replay the same trace. Any
	// two correct schemes produce equal digests for the same cell —
	// the differential-testing oracle.
	Digest uint64

	// Obs is the run's observability report (trace spans and/or
	// metrics), non-nil only when Config.Obs asked for recording.
	Obs *obs.Report

	// CheckCounts is the checker's independent event tally, non-nil
	// only when Config.Check was set. The conservation tests reconcile
	// it against Obs metrics and the Faults report.
	CheckCounts *check.Counts

	// Store is the host chunk cache's traffic and StoreRemote the
	// remote backend's, non-nil only when Config.Store selected a
	// non-local tier.
	Store       *store.CacheStats
	StoreRemote *store.RemoteStats

	// Probe holds the columns Cell.Probe read from the run's
	// prefetcher, nil without a probe. They are plain text, so no
	// result keeps the prefetcher, or the host it ran on, alive.
	Probe []string
}

// Config tunes a run.
type Config struct {
	// N is the number of concurrent sandboxes (1 or 10 in the paper).
	N int
	// Device selects the storage model; zero value means the paper's
	// Micron 5300 SATA SSD.
	Device blockdev.Params
	// AllocDrift rotates the guest allocator free lists per sandbox,
	// modelling allocator-state drift between the record invocation
	// and production invocations. The paper's methodology invokes
	// with identical inputs (drift is called out as future work), so
	// the default is 0; the drift ablation raises it.
	AllocDrift int

	// InputVariance in [0, 1] gives every sandbox a *different input*:
	// each invocation trace is a per-sandbox variant of the recorded
	// one (skipped regions, extra writes). 0 reproduces the paper's
	// identical-input methodology; the varying-inputs extension sweeps
	// it (the paper defers this to future work).
	InputVariance float64

	// CacheLimitPages bounds the host page cache during the
	// invocation phase (0 = unlimited, the paper's 128GiB-per-socket
	// testbed is effectively unconstrained).
	CacheLimitPages int64

	// Faults, when non-nil and enabled, injects storage and
	// scheme-level faults for the whole run (record + invocation
	// phases), seeded by the plan — reruns with an equal plan are
	// byte-identical. Nil or a disabled plan means a healthy run.
	Faults *faults.Plan

	// Check arms the invariant-checking harness (internal/check): a
	// Checker observes every layer of the run, Run fails with the
	// collected violations if any invariant breaks, and — when
	// InputVariance is 0 — the final guest-memory digest is recorded
	// in RunResult.Digest and checked for equality across sandboxes.
	Check bool

	// Obs, when non-nil and enabled, arms the observability layer
	// (internal/obs): a Recorder observes every layer of the run and
	// the resulting trace/metrics report lands in RunResult.Obs.
	// Composes with Check — the checker and the recorder attach side by
	// side, so both see the identical stream.
	Obs *obs.Config

	// Store, when non-nil with a non-local tier, places the snapshot
	// in the simulated distribution tier (internal/store): chunks are
	// pulled from the remote under Store.Policy, through a host chunk
	// cache that starts warm or cold per Store.Tier. Nil or TierLocal
	// reproduces the paper's local-SSD baseline exactly.
	Store *store.Setup
}

// invokeTrace returns sandbox i's trace under the configured variance.
func (cfg Config) invokeTrace(env *prefetch.Env, i int) *trace.Trace {
	if cfg.InputVariance <= 0 {
		return env.InvokeTrace
	}
	return env.Fn.GenTraceVariant(int64(i+1), cfg.InputVariance*0.3, cfg.InputVariance*0.25)
}

// measurement is a single-host run after its measured phase: the armed
// host, the staged functions, and every sandbox that ran.
type measurement struct {
	h      *testbed.Host
	staged []*testbed.Fn
	// sbs[w][i*N+k] is sandbox k of function i in wave w.
	sbs [][]testbed.Sandbox
	// mem is the host's footprint at the end of each wave, before
	// teardown.
	mem []units.ByteSize
	// digests[i] is the guest-memory fold every sandbox of function i
	// converged to (0 without Check, or with InputVariance set).
	digests []uint64
	obs     *obs.Report
	counts  *check.Counts
}

// measure is the protocol behind Run, RunWaves and RunMixed. It checks
// cfg and fills in its defaults, arms one host as cfg asks, stages an
// instance of scheme for each function and records them. Then it runs
// `waves` bursts of cfg.N concurrent sandboxes of every function: wave
// w starts w·gap after the first, or as soon as wave w−1 has drained
// if that is later, and its sandboxes are torn down when it ends.
// label names the run in errors.
func (cfg *Config) measure(label string, scheme Scheme, fns []workload.Function, waves int, gap time.Duration) (*measurement, error) {
	if cfg.N < 0 {
		return nil, fmt.Errorf("%s: negative sandbox count %d", label, cfg.N)
	}
	if cfg.N == 0 {
		cfg.N = 1
	}
	// Written so that NaN fails too.
	if !(cfg.InputVariance >= 0 && cfg.InputVariance <= 1) {
		return nil, fmt.Errorf("%s: input variance %v outside [0, 1]", label, cfg.InputVariance)
	}
	if cfg.AllocDrift < 0 {
		return nil, fmt.Errorf("%s: negative allocator drift %d", label, cfg.AllocDrift)
	}
	if cfg.CacheLimitPages < 0 {
		return nil, fmt.Errorf("%s: negative page-cache limit %d pages", label, cfg.CacheLimitPages)
	}
	if cfg.Device.Name == "" {
		cfg.Device = blockdev.MicronSATA5300()
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
	}
	h := testbed.Arm(vmm.NewHost(cfg.Device), "", testbed.Arming{
		Faults: cfg.Faults, Check: cfg.Check, Obs: cfg.Obs, Store: cfg.Store,
	})
	s := &measurement{h: h}
	for _, fn := range fns {
		s.staged = append(s.staged, h.Stage(testbed.NewFunc(fn, scheme)))
	}
	if err := testbed.Record(cfg.CacheLimitPages, h); err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}

	n := cfg.N
	// Several sandboxes can fail; keep the *first* failure so
	// diagnostics are stable — within one engine the dispatch order,
	// and therefore "first", is deterministic.
	var invErr error
	start := h.Eng.Now()
	for w := 0; w < waves; w++ {
		wave := make([]testbed.Sandbox, len(fns)*n)
		for i, f := range s.staged {
			for k := 0; k < n; k++ {
				i, k, f := i, k, f
				vm := fmt.Sprintf("%s-vm%d", f.Env.Fn.Name, k)
				if w > 0 {
					vm = fmt.Sprintf("w%d-%s", w, vm)
				}
				proc := fmt.Sprintf("vm%d", (w*len(fns)+i)*n+k)
				h.Eng.GoAfter(start.Add(time.Duration(w)*gap).Sub(h.Eng.Now()), proc, func(p *sim.Proc) {
					sb, err := h.ColdStart(p, f, vm, cfg.AllocDrift*(1+k), cfg.invokeTrace(f.Env, k))
					if err != nil {
						if invErr == nil {
							invErr = fmt.Errorf("%s: invoke %s: %w", label, vm, err)
						}
						return
					}
					wave[i*n+k] = sb
				})
			}
		}
		h.Eng.Run() // the wave completes, with its prefetch threads
		if invErr != nil {
			return nil, invErr
		}
		// Memory before teardown: everything the sandboxes still hold.
		s.mem = append(s.mem, units.PagesToBytes(h.MM.SystemMemoryPages()))
		for _, sb := range wave {
			sb.VM.Shutdown()
		}
		s.sbs = append(s.sbs, wave)
	}

	s.digests = make([]uint64, len(fns))
	if cfg.InputVariance == 0 {
		// Identical inputs: every sandbox of a function must converge to
		// the same guest-visible memory, whatever the scheme did to get
		// there.
		for i, fn := range fns {
			want := s.sbs[0][i*n].Digest
			for w, wave := range s.sbs {
				for k, sb := range wave[i*n : (i+1)*n] {
					if sb.Digest != want {
						return nil, fmt.Errorf("check %s/%s: vm%d digest %016x != vm0 digest %016x",
							scheme.Name, fn.Name, w*n+k, sb.Digest, want)
					}
				}
			}
			s.digests[i] = want
		}
	}
	var err error
	if s.obs, s.counts, err = h.Finish(); err != nil {
		return nil, fmt.Errorf("check %s: %w", label, err)
	}
	return s, nil
}

// meanE2E is the mean E2E of sbs.
func meanE2E(sbs []testbed.Sandbox) time.Duration {
	var sum time.Duration
	for _, sb := range sbs {
		sum += sb.Stats.E2E
	}
	return sum / time.Duration(len(sbs))
}

// Run executes one cell: record once, then N concurrent invocations
// of fn under the scheme.
func Run(fn workload.Function, scheme Scheme, cfg Config) (*RunResult, error) {
	return run(fn, scheme, cfg, nil)
}

// run is Run with a Cell.Probe, called on the prefetcher after the
// measurement.
func run(fn workload.Function, scheme Scheme, cfg Config, probe func(prefetch.Prefetcher) []string) (*RunResult, error) {
	s, err := cfg.measure(scheme.Name+"/"+fn.Name, scheme, []workload.Function{fn}, 1, 0)
	if err != nil {
		return nil, err
	}
	h, pf := s.h, s.staged[0].PF
	res := &RunResult{
		Scheme: pf.Name(), Function: fn.Name, N: cfg.N,
		E2E:            make([]time.Duration, cfg.N),
		MeanE2E:        meanE2E(s.sbs[0]),
		SystemMemory:   s.mem[0],
		DeviceBytes:    h.Dev.Stats().BytesRead,
		DeviceRequests: h.Dev.Stats().Requests,
		Evictions:      h.Cache.Evictions(),
		Faults:         h.Inj.Report(),
		Digest:         s.digests[0],
		Obs:            s.obs,
		CheckCounts:    s.counts,
	}
	var prepSum time.Duration
	for i, sb := range s.sbs[0] {
		res.E2E[i] = sb.Stats.E2E
		res.MaxE2E = max(res.MaxE2E, sb.Stats.E2E)
		prepSum += sb.Stats.Prepare
	}
	res.MeanPrepare = prepSum / time.Duration(cfg.N)
	if h.Chunks != nil {
		cs := h.Chunks.Stats()
		res.Store = &cs
		rs := h.Remote.Stats()
		res.StoreRemote = &rs
	}

	if sb, ok := pf.(*core.SnapBPF); ok {
		if len(sb.OffsetLoads) > 0 {
			var t time.Duration
			for _, d := range sb.OffsetLoads {
				t += d
			}
			res.OffsetLoad = t / time.Duration(len(sb.OffsetLoads))
		}
		if ws := sb.WorkingSet(); ws != nil {
			res.WSGroups = len(ws.Groups)
		}
	}
	if probe != nil {
		res.Probe = probe(pf)
	}
	return res, nil
}

// WavesResult is the measurement of a steady-state run: repeated
// bursts ("waves") of cold starts of the same function on one host,
// with sandboxes torn down between waves. Page-cache-based schemes
// keep the working set warm across waves; userfaultfd-based schemes
// rebuild their private copies every time.
type WavesResult struct {
	Scheme string
	// WaveE2E is the mean sandbox E2E per wave.
	WaveE2E []time.Duration
	// DeviceBytes is total invocation-phase storage traffic.
	DeviceBytes int64
	// PeakMemory is the largest footprint observed at a wave end.
	PeakMemory units.ByteSize
	// Digest is the guest-memory fold every sandbox of every wave
	// converged to, as in RunResult.Digest.
	Digest uint64
	// Obs is the run's observability report, as in RunResult.Obs.
	Obs *obs.Report
}

// RunWaves records once, then runs `waves` bursts of cfg.N concurrent
// sandboxes: wave w starts w·gap after the first, or as soon as wave
// w−1 has drained if that is later. Both counts must be positive.
func RunWaves(fn workload.Function, scheme Scheme, waves int, gap time.Duration, cfg Config) (*WavesResult, error) {
	label := scheme.Name + "/" + fn.Name
	if waves <= 0 || cfg.N <= 0 {
		return nil, fmt.Errorf("%s: waves (%d) and sandboxes per wave (%d) must be positive",
			label, waves, cfg.N)
	}
	s, err := cfg.measure(label, scheme, []workload.Function{fn}, waves, gap)
	if err != nil {
		return nil, err
	}
	res := &WavesResult{Scheme: s.staged[0].PF.Name(), DeviceBytes: s.h.Dev.Stats().BytesRead,
		Digest: s.digests[0], Obs: s.obs}
	for w, wave := range s.sbs {
		res.WaveE2E = append(res.WaveE2E, meanE2E(wave))
		res.PeakMemory = max(res.PeakMemory, s.mem[w])
	}
	return res, nil
}

// MixedResult is the measurement of a co-location run: sandboxes of
// several different functions sharing one host and SSD.
type MixedResult struct {
	Scheme string
	// PerFunction maps function name to its sandboxes' mean E2E.
	PerFunction map[string]time.Duration
	// SystemMemory is the whole host's footprint at completion.
	SystemMemory units.ByteSize
	// DeviceBytes is the invocation-phase storage traffic.
	DeviceBytes int64
	// Digests maps function name to the guest-memory fold its
	// sandboxes converged to, as in RunResult.Digest.
	Digests map[string]uint64
	// Obs is the run's observability report, as in RunResult.Obs.
	Obs *obs.Report
}

// RunMixed records every function once, then starts cfg.N sandboxes
// of *each* function concurrently on one shared host — the
// multi-tenant co-location scenario a FaaS node actually faces. Each
// function may appear once.
func RunMixed(fns []workload.Function, scheme Scheme, cfg Config) (*MixedResult, error) {
	label := "mixed " + scheme.Name
	if len(fns) == 0 {
		return nil, fmt.Errorf("%s: no functions given", label)
	}
	seen := make(map[string]bool, len(fns))
	for _, fn := range fns {
		if seen[fn.Name] {
			return nil, fmt.Errorf("%s: function %q given twice", label, fn.Name)
		}
		seen[fn.Name] = true
	}
	s, err := cfg.measure(label, scheme, fns, 1, 0)
	if err != nil {
		return nil, err
	}
	res := &MixedResult{Scheme: scheme.Name, SystemMemory: s.mem[0],
		DeviceBytes: s.h.Dev.Stats().BytesRead, Obs: s.obs,
		PerFunction: make(map[string]time.Duration), Digests: make(map[string]uint64)}
	for i, fn := range fns {
		res.PerFunction[fn.Name] = meanE2E(s.sbs[0][i*cfg.N : (i+1)*cfg.N])
		res.Digests[fn.Name] = s.digests[i]
	}
	return res, nil
}
