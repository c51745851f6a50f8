// Package snapbpf is a self-contained reproduction of "SnapBPF:
// Exploiting eBPF for Serverless Snapshot Prefetching" (Psomadakis et
// al., HotStorage '25): an eBPF-based kernel-space mechanism for
// capturing and prefetching the working sets of VM-sandboxed
// serverless functions, evaluated against the REAP, Faast, FaaSnap
// and vanilla-Linux baselines on a deterministic discrete-event
// simulation of the Linux storage and memory stack.
//
// The package is a facade over the implementation packages:
//
//   - workload models (the FunctionBench + FaaSMem suite),
//   - prefetching schemes (SnapBPF and every baseline),
//   - the experiment runner regenerating each table and figure.
//
// # Quick start
//
//	fn, _ := snapbpf.FunctionByName("json")
//	res, _ := snapbpf.Run(fn, snapbpf.SchemeSnapBPF, snapbpf.RunConfig{N: 1})
//	fmt.Println(res.MeanE2E)
//
// The package examples are runnable programs; cmd/snapbpf-bench is the
// full evaluation harness.
package snapbpf

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/core"
	"snapbpf/internal/experiments"
	"snapbpf/internal/faults"
	"snapbpf/internal/obs"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/prefetch/faasnap"
	"snapbpf/internal/prefetch/faast"
	"snapbpf/internal/prefetch/reap"
	"snapbpf/internal/snapshot"
	"snapbpf/internal/vmm"
	"snapbpf/internal/workload"
)

// Core re-exports. Aliases keep the full method sets of the
// implementation types available through the public API.
type (
	// Function is a workload model from the evaluation suite.
	Function = workload.Function

	// Prefetcher is one snapshot-prefetching scheme (SnapBPF or a
	// baseline); see Capabilities for its Table 1 row.
	Prefetcher = prefetch.Prefetcher

	// Capabilities is a scheme's Table 1 feature-matrix row.
	Capabilities = prefetch.Capabilities

	// Scheme is a named Prefetcher factory used by the runner.
	Scheme = experiments.Scheme

	// RunConfig tunes one experiment cell (concurrency, device,
	// allocator drift).
	RunConfig = experiments.Config

	// RunResult is the measurement of one cell.
	RunResult = experiments.RunResult

	// Table is a rendered experiment result (text and CSV).
	Table = experiments.Table

	// ExperimentOptions configures whole-figure runs.
	ExperimentOptions = experiments.Options

	// Host is one simulated machine (engine, SSD, page cache, memory
	// manager, kprobes, eBPF); advanced users compose their own
	// scenarios against it as ExampleAttachKprobe does.
	Host = vmm.Host

	// MicroVM is one VM sandbox restored from a snapshot.
	MicroVM = vmm.MicroVM

	// RestoreConfig selects guest patches and KVM behaviour.
	RestoreConfig = vmm.RestoreConfig

	// Env is the per-function context handed to Prefetchers.
	Env = prefetch.Env

	// DeviceParams describes a storage device model.
	DeviceParams = blockdev.Params

	// MemoryImage is the on-disk snapshot artifact.
	MemoryImage = snapshot.MemoryImage

	// OffsetsWS is SnapBPF's offsets-only working-set artifact.
	OffsetsWS = snapshot.OffsetsWS

	// SnapBPF is the paper's prefetcher with its mechanism toggles.
	SnapBPF = core.SnapBPF

	// FaultPlan describes seeded storage/scheme fault injection for a
	// run (RunConfig.Faults, ExperimentOptions.Faults); the zero value
	// injects nothing.
	FaultPlan = faults.Plan

	// FaultReport summarizes what a run's fault injector did
	// (RunResult.Faults): injected events, retries, fallbacks.
	FaultReport = faults.Report

	// ObsConfig selects what a run's observability layer records
	// (RunConfig.Obs): sim-time trace spans and/or metrics.
	ObsConfig = obs.Config

	// ObsReport is the finished observability output of one run
	// (RunResult.Obs); render it with obs.BuildTrace /
	// ObsReport.Metrics.
	ObsReport = obs.Report

	// MetricsSnapshot is a rendered metric set: counters plus
	// histograms with p50/p95/p99, exportable as Prometheus text.
	MetricsSnapshot = obs.Snapshot
)

// Predefined schemes, as named in the paper's figures.
var (
	SchemeLinuxNoRA = experiments.SchemeLinuxNoRA
	SchemeLinuxRA   = experiments.SchemeLinuxRA
	SchemeREAP      = experiments.SchemeREAP
	SchemeFaast     = experiments.SchemeFaast
	SchemeFaaSnap   = experiments.SchemeFaaSnap
	SchemeSnapBPF   = experiments.SchemeSnapBPF
	SchemePVOnly    = experiments.SchemePVOnly
)

// Schemes returns every predefined scheme in figure order.
func Schemes() []Scheme {
	return []Scheme{SchemeLinuxNoRA, SchemeLinuxRA, SchemeREAP,
		SchemeFaast, SchemeFaaSnap, SchemeSnapBPF, SchemePVOnly}
}

// SchemeByName resolves a scheme by its display name
// (case-sensitive, e.g. "SnapBPF", "Linux-RA").
func SchemeByName(name string) (Scheme, error) {
	for _, s := range Schemes() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scheme{}, fmt.Errorf("snapbpf: unknown scheme %q", name)
}

// Functions returns the 15-function evaluation suite (12
// FunctionBench-style functions plus the FaaSMem html/bfs/bert
// workloads), in figure order.
func Functions() []Function { return workload.Suite() }

// FunctionByName resolves a suite function by name.
func FunctionByName(name string) (Function, error) { return workload.ByName(name) }

// New returns the SnapBPF prefetcher with both mechanisms enabled
// (eBPF capture/prefetch and PV PTE marking), as in Figure 3.
func New() *SnapBPF { return core.New() }

// NewPVOnly returns the PV-PTE-marking-only configuration (Figure 4).
func NewPVOnly() *SnapBPF { return core.NewPVOnly() }

// NewREAP returns the REAP baseline (userfaultfd + WS file + direct I/O).
func NewREAP() Prefetcher { return reap.New() }

// NewFaast returns the Faast baseline (userfaultfd + allocator metadata).
func NewFaast() Prefetcher { return faast.New() }

// NewFaaSnap returns the FaaSnap baseline (mincore/mmap + coalescing).
func NewFaaSnap() Prefetcher { return faasnap.New() }

// NewLinuxRA returns the vanilla demand-paging baseline with default
// readahead; NewLinuxNoRA disables readahead.
func NewLinuxRA() Prefetcher { return prefetch.NewLinuxRA() }

// NewLinuxNoRA returns the readahead-disabled baseline.
func NewLinuxNoRA() Prefetcher { return prefetch.NewLinuxNoRA() }

// NewHost assembles a simulated machine around the given device;
// MicronSATA5300 is the paper's testbed SSD.
func NewHost(dev DeviceParams) *Host { return vmm.NewHost(dev) }

// MicronSATA5300 returns the paper's SSD model.
func MicronSATA5300() DeviceParams { return blockdev.MicronSATA5300() }

// SpindleHDD returns a 7200rpm disk model for storage-sensitivity
// studies.
func SpindleHDD() DeviceParams { return blockdev.SpindleHDD() }

// NVMeGen4 returns a modern datacenter NVMe model.
func NVMeGen4() DeviceParams { return blockdev.NVMeGen4() }

// LightFaults returns the ageing-but-serviceable device fault plan;
// HeavyFaults the degrading-device plan. Both are reproducible from
// the seed: equal plans yield byte-identical runs.
func LightFaults(seed int64) FaultPlan { return faults.Light(seed) }

// HeavyFaults returns the degrading-device fault plan.
func HeavyFaults(seed int64) FaultPlan { return faults.Heavy(seed) }

// ParseParallel parses a worker-count setting such as the -parallel
// flag: a non-negative integer, where 0 means one worker per CPU.
// Non-integers and negative counts are rejected rather than silently
// treated as the default.
func ParseParallel(s string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("parallel: %q is not an integer", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("parallel: worker count must be >= 0, got %d", n)
	}
	return n, nil
}

// BuildImage constructs a function's snapshot memory image directly
// (the fast path used by the experiment harness).
func BuildImage(fn Function, zeroOnFree bool) *MemoryImage {
	return vmm.BuildImage(fn, zeroOnFree)
}

// Run executes one experiment cell: a record phase followed by N
// concurrent cold-start invocations on a fresh simulated host.
func Run(fn Function, scheme Scheme, cfg RunConfig) (*RunResult, error) {
	return experiments.Run(fn, scheme, cfg)
}

// WavesResult is the measurement of a steady-state (repeated-burst)
// run; MixedResult is the measurement of a multi-function co-location
// run.
type (
	WavesResult = experiments.WavesResult
	MixedResult = experiments.MixedResult
)

// RunWaves runs repeated bursts of cold starts of one function on one
// host, with sandbox teardown between bursts (steady-state scenario).
func RunWaves(fn Function, scheme Scheme, waves, perWave int, gap time.Duration, dev DeviceParams) (*WavesResult, error) {
	return experiments.RunWaves(fn, scheme, waves, gap, experiments.Config{N: perWave, Device: dev})
}

// RunMixed runs perFn sandboxes (0 means 1) of each of several
// different functions concurrently on one shared host (co-location
// scenario). A negative perFn or a function listed twice is an error.
func RunMixed(fns []Function, scheme Scheme, perFn int, dev DeviceParams) (*MixedResult, error) {
	return experiments.RunMixed(fns, scheme, experiments.Config{N: perFn, Device: dev})
}

// Experiment identifies one reproducible table or figure.
type Experiment struct {
	// ID is the experiment identifier ("table1", "fig3a", ...).
	ID string
	// Run regenerates the experiment.
	Run func(ExperimentOptions) (*Table, error)
}

// Experiments returns every experiment (the paper's Table 1, Figures
// 3a/3b/3c and 4, the overheads measurement, and the ablations) in
// report order.
func Experiments() []Experiment {
	var out []Experiment
	for _, e := range experiments.All() {
		out = append(out, Experiment{ID: e.ID, Run: e.Run})
	}
	return out
}
