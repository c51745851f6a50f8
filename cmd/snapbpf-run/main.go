// Command snapbpf-run executes one (function, scheme, concurrency)
// cell of the evaluation and prints detailed per-sandbox statistics:
// E2E latency and its preparation share, nested-fault and host-fault
// breakdowns, device traffic and memory footprint. It is the
// inspection companion to snapbpf-bench.
//
// Usage:
//
//	snapbpf-run -func bert -scheme snapbpf -n 10
//	snapbpf-run -func image -scheme linux-ra
//	snapbpf-run -func json -trace t.json     # Chrome trace of the cell
//	snapbpf-run -func json -metrics m.json   # metrics JSON + .prom
//	snapbpf-run -schemes                     # list scheme names
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/experiments"
	"snapbpf/internal/obs"
	"snapbpf/internal/units"
	"snapbpf/internal/workload"
)

// schemes lists every scheme in figure order.
var schemes = []experiments.Scheme{
	experiments.SchemeLinuxNoRA, experiments.SchemeLinuxRA, experiments.SchemeREAP,
	experiments.SchemeFaast, experiments.SchemeFaaSnap, experiments.SchemeSnapBPF,
	experiments.SchemePVOnly,
}

// schemeNames returns the -scheme names, lowercase, in figure order.
func schemeNames() []string {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = strings.ToLower(s.Name)
	}
	return names
}

func main() {
	var (
		fnName   = flag.String("func", "json", "function name from the workload suite")
		scheme   = flag.String("scheme", "snapbpf", "prefetching scheme")
		n        = flag.Int("n", 1, "concurrent sandboxes")
		drift    = flag.Int("drift", 0, "allocator drift between record and invoke")
		device   = flag.String("device", "ssd", "storage profile: ssd, nvme, hdd")
		variance = flag.Float64("variance", 0, "input variance in [0,1] across sandboxes")
		cacheMiB = flag.Int64("cache-limit", 0, "page-cache limit in MiB (0 = unlimited)")
		listS    = flag.Bool("schemes", false, "list scheme names and exit")
		listF    = flag.Bool("funcs", false, "list function names and exit")
		traceOut = flag.String("trace", "", "write the cell's Chrome trace_event JSON to this file (open in chrome://tracing)")
		metrics  = flag.String("metrics", "", "write the cell's metrics to this JSON file, plus Prometheus text next to it (.prom)")
	)
	flag.Parse()

	if *listS {
		fmt.Println(strings.Join(schemeNames(), "\n"))
		return
	}
	if *listF {
		fmt.Println(strings.Join(workload.Names(), "\n"))
		return
	}

	fn, err := workload.ByName(*fnName)
	if err != nil {
		fatal(err)
	}
	i := slices.Index(schemeNames(), strings.ToLower(*scheme))
	if i < 0 {
		fatal(fmt.Errorf("unknown scheme %q (use -schemes)", *scheme))
	}
	s := schemes[i]

	var dev blockdev.Params
	switch strings.ToLower(*device) {
	case "ssd", "":
		dev = blockdev.MicronSATA5300()
	case "nvme":
		dev = blockdev.NVMeGen4()
	case "hdd":
		dev = blockdev.SpindleHDD()
	default:
		fatal(fmt.Errorf("unknown device %q (ssd, nvme, hdd)", *device))
	}

	if *cacheMiB < 0 {
		// Pages() would clamp it to 0, which means unlimited.
		fatal(fmt.Errorf("negative -cache-limit %d MiB", *cacheMiB))
	}
	cfg := experiments.Config{
		N:               *n,
		AllocDrift:      *drift,
		Device:          dev,
		InputVariance:   *variance,
		CacheLimitPages: (units.ByteSize(*cacheMiB) * units.MiB).Pages(),
	}
	if *traceOut != "" || *metrics != "" {
		cfg.Obs = &obs.Config{Trace: *traceOut != "", Metrics: *metrics != ""}
	}
	res, err := experiments.Run(fn, s, cfg)
	if err != nil {
		fatal(err)
	}
	cellName := fmt.Sprintf("%s/%s/n%d", res.Scheme, res.Function, res.N)
	if res.Obs != nil {
		if d := res.Obs.TraceDropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "trace: %d events dropped by the %d-event per-run cap\n", d, obs.DefaultMaxTraceEvents)
		}
	}
	if *traceOut != "" {
		data := obs.BuildTrace([]obs.TraceCell{{Name: cellName, Report: res.Obs}})
		if err := obs.ValidateTrace(data); err != nil {
			fatal(fmt.Errorf("trace self-check: %w", err))
		}
		if err := writeFile(*traceOut, data); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "trace written to", *traceOut)
	}
	if *metrics != "" {
		data, err := obs.BuildMetricsJSON([]obs.MetricsCell{{Name: cellName, Report: res.Obs}})
		if err != nil {
			fatal(err)
		}
		if err := writeFile(*metrics, data); err != nil {
			fatal(err)
		}
		promPath := strings.TrimSuffix(*metrics, filepath.Ext(*metrics)) + ".prom"
		if err := writeFile(promPath, res.Obs.Metrics().Prometheus()); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics written to %s and %s\n", *metrics, promPath)
	}
	fmt.Printf("device     %s\n", dev.Name)

	fmt.Printf("function   %s  (mem=%dMiB state=%dMiB ws=%dMiB alloc=%dMiB compute=%dms)\n",
		fn.Name, fn.MemMiB, fn.StateMiB, fn.WSMiB, fn.AllocMiB, fn.ComputeMs)
	fmt.Printf("scheme     %s   sandboxes=%d\n\n", res.Scheme, res.N)
	for i, e := range res.E2E {
		fmt.Printf("  vm%-2d E2E %v\n", i, e)
	}
	fmt.Printf("\nmean E2E        %v\n", res.MeanE2E)
	fmt.Printf("max E2E         %v\n", res.MaxE2E)
	fmt.Printf("mean prepare    %v\n", res.MeanPrepare)
	if res.OffsetLoad > 0 {
		fmt.Printf("offset load     %v  (%d groups)\n", res.OffsetLoad, res.WSGroups)
	}
	fmt.Printf("system memory   %v\n", res.SystemMemory)
	fmt.Printf("device read     %.1f MiB in %d requests\n",
		float64(res.DeviceBytes)/(1<<20), res.DeviceRequests)
	if res.Evictions > 0 {
		fmt.Printf("cache evictions %d\n", res.Evictions)
	}
}

// writeFile writes data, creating the parent directory if needed.
func writeFile(path string, data []byte) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snapbpf-run:", err)
	os.Exit(1)
}
