package experiments

import (
	"fmt"
	"time"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/core"
	"snapbpf/internal/costmodel"
	"snapbpf/internal/obs"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/sim"
	"snapbpf/internal/snapshot"
	"snapbpf/internal/testbed"
	"snapbpf/internal/units"
	"snapbpf/internal/vmm"
)

// Extension experiments: studies the paper explicitly defers to future
// work, built on the same harness.

// ExtVaryingInputs implements the paper's deferred evaluation: "We
// consider evaluating the effect of varying function inputs on
// SnapBPF's memory deduplication for future work" (§4 Methodology).
// Every sandbox receives a per-input trace variant (skipped regions,
// extra writes); extra writes CoW shared snapshot pages into private
// anonymous memory, eroding deduplication.
func ExtVaryingInputs(o Options) (*Table, error) {
	variances := []float64{0, 0.25, 0.5, 1.0}
	t := &Table{
		ID:    "ext-varying-inputs",
		Title: "Input variance vs deduplication: SnapBPF memory (GiB) and REAP ratio, 10 instances",
		Note:  "variance 0 = the paper's identical-input methodology",
		Columns: []string{"Function/variance", "SnapBPF mem", "REAP mem",
			"REAP/SnapBPF", "SnapBPF E2E (s)"},
	}
	gib := func(b units.ByteSize) string { return fmt.Sprintf("%.2f", float64(b)/(1<<30)) }
	fns := o.functions()
	schemes := []Scheme{SchemeSnapBPF, SchemeREAP}
	var cells []Cell
	for _, fn := range fns {
		for _, v := range variances {
			for _, s := range schemes {
				cells = append(cells, Cell{Fn: fn, Scheme: s, Cfg: Config{N: 10, InputVariance: v}})
			}
		}
	}
	rs, err := RunCells(o, cells)
	if err != nil {
		return nil, err
	}
	for fi, fn := range fns {
		for vi, v := range variances {
			sb := rs[(fi*len(variances)+vi)*2]
			rp := rs[(fi*len(variances)+vi)*2+1]
			o.progress("ext-varying-inputs %-10s v=%.2f snapbpf=%v reap=%v",
				fn.Name, v, sb.SystemMemory, rp.SystemMemory)
			t.AddRow(fmt.Sprintf("%s/v=%.2f", fn.Name, v),
				gib(sb.SystemMemory), gib(rp.SystemMemory),
				fmt.Sprintf("%.1fx", float64(rp.SystemMemory)/float64(sb.SystemMemory)),
				secs(sb.MeanE2E))
		}
	}
	return t, nil
}

// ExtConcurrency sweeps the sandbox count, exposing where the schemes'
// storage and memory scaling diverge (the paper fixes N at 1 and 10).
func ExtConcurrency(o Options) (*Table, error) {
	counts := []int{1, 2, 5, 10, 20, 40}
	t := &Table{
		ID:      "ext-concurrency",
		Title:   "Concurrency sweep: mean E2E (s) per sandbox count",
		Columns: []string{"Function/N", "REAP", "SnapBPF", "REAP/SnapBPF", "SnapBPF mem (GiB)"},
	}
	fns := o.functions()
	var cells []Cell
	for _, fn := range fns {
		for _, n := range counts {
			cells = append(cells,
				Cell{Fn: fn, Scheme: SchemeREAP, Cfg: Config{N: n}},
				Cell{Fn: fn, Scheme: SchemeSnapBPF, Cfg: Config{N: n}})
		}
	}
	rs, err := RunCells(o, cells)
	if err != nil {
		return nil, err
	}
	for fi, fn := range fns {
		for ni, n := range counts {
			rp := rs[(fi*len(counts)+ni)*2]
			sb := rs[(fi*len(counts)+ni)*2+1]
			o.progress("ext-concurrency %-10s n=%-3d reap=%v snapbpf=%v", fn.Name, n, rp.MeanE2E, sb.MeanE2E)
			t.AddRow(fmt.Sprintf("%s/N=%d", fn.Name, n),
				secs(rp.MeanE2E), secs(sb.MeanE2E),
				ratio(rp.MeanE2E, sb.MeanE2E)+"x",
				fmt.Sprintf("%.2f", float64(sb.SystemMemory)/(1<<30)))
		}
	}
	return t, nil
}

// ExtCostAnalysis is the "comprehensive analysis of the computational
// and memory costs of SnapBPF" the paper defers (§4 Overheads): eBPF
// program executions and their CPU cost, kernel map memory, and the
// offset-loading share of E2E, per function at 10 sandboxes.
func ExtCostAnalysis(o Options) (*Table, error) {
	t := &Table{
		ID:    "ext-cost-analysis",
		Title: "SnapBPF computational and memory costs (10 sandboxes)",
		Columns: []string{"Function", "capture runs", "prefetch runs",
			"eBPF CPU (ms)", "map memory (KiB)", "load (ms)", "load/E2E"},
	}
	// Modelled CPU cost of one kprobe-dispatched program execution.
	cm := costmodel.Default().KprobeDispatch
	fns := o.functions()
	// Each cell's factory deposits the SnapBPF instance it built into
	// the cell's own slot so the counters can be read after the runs.
	pfs := make([]*core.SnapBPF, len(fns))
	cells := make([]Cell, len(fns))
	for idx, fn := range fns {
		idx := idx
		cells[idx] = Cell{Fn: fn, Scheme: Scheme{Name: "SnapBPF", New: func() prefetch.Prefetcher {
			s := core.New()
			pfs[idx] = s
			return s
		}}, Cfg: Config{N: 10}}
	}
	rs, err := RunCells(o, cells)
	if err != nil {
		return nil, err
	}
	for fi, fn := range fns {
		res, s := rs[fi], pfs[fi]
		runs := s.CaptureProgRuns + s.PrefetchProgRuns
		ebpfCPU := time.Duration(runs) * cm
		// Kernel-resident map memory: the ws hash map (16B/entry at
		// capture) plus per-sandbox schedule arrays (2 x 8B per group
		// + conf), for 10 sandboxes.
		groups := int64(res.WSGroups)
		wsPages := int64(0)
		if ws := s.WorkingSet(); ws != nil {
			wsPages = ws.TotalPages()
		}
		mapBytes := wsPages*16 + 10*(groups*16+4*8)
		o.progress("ext-cost %-10s runs=%d cpu=%v maps=%dKiB", fn.Name, runs, ebpfCPU, mapBytes/1024)
		t.AddRow(fn.Name,
			fmt.Sprintf("%d", s.CaptureProgRuns),
			fmt.Sprintf("%d", s.PrefetchProgRuns),
			fmt.Sprintf("%.3f", ebpfCPU.Seconds()*1000),
			fmt.Sprintf("%d", mapBytes/1024),
			fmt.Sprintf("%.3f", res.OffsetLoad.Seconds()*1000),
			fmt.Sprintf("%.2f%%", 100*float64(res.OffsetLoad)/float64(res.MeanE2E)))
	}
	return t, nil
}

// ExtDevices reruns the headline comparison across storage profiles —
// spindle HDD, the paper's SATA SSD, and a modern NVMe drive —
// extending the paper's premise that device characteristics decide
// whether skipping WS serialization is free (§3.1 and the authors'
// prior storage-profile study).
func ExtDevices(o Options) (*Table, error) {
	devices := []blockdev.Params{blockdev.SpindleHDD(), blockdev.MicronSATA5300(), blockdev.NVMeGen4()}
	t := &Table{
		ID:      "ext-devices",
		Title:   "Storage profiles: E2E (s) at 10 concurrent instances",
		Columns: []string{"Function/device", "Linux-RA", "REAP", "SnapBPF", "REAP/SnapBPF"},
	}
	fns := o.functions()
	schemes := []Scheme{SchemeLinuxRA, SchemeREAP, SchemeSnapBPF}
	var cells []Cell
	for _, fn := range fns {
		for _, dev := range devices {
			for _, s := range schemes {
				cells = append(cells, Cell{Fn: fn, Scheme: s, Cfg: Config{N: 10, Device: dev}})
			}
		}
	}
	rs, err := RunCells(o, cells)
	if err != nil {
		return nil, err
	}
	for fi, fn := range fns {
		for di, dev := range devices {
			var e2e [3]time.Duration
			for i, s := range schemes {
				e2e[i] = rs[(fi*len(devices)+di)*len(schemes)+i].MeanE2E
				o.progress("ext-devices %-10s %-16s %-8s E2E=%v", fn.Name, dev.Name, s.Name, e2e[i])
			}
			t.AddRow(fmt.Sprintf("%s/%s", fn.Name, dev.Name),
				secs(e2e[0]), secs(e2e[1]), secs(e2e[2]), ratio(e2e[1], e2e[2])+"x")
		}
	}
	return t, nil
}

// ExtSnapshotCreation measures the snapshot-creation lifecycle (boot,
// init/pre-warm, serialize) that produces the memory images every
// other experiment restores from.
func ExtSnapshotCreation(o Options) (*Table, error) {
	t := &Table{
		ID:    "ext-snapshot-creation",
		Title: "Snapshot creation: boot + init + serialize per function",
		Columns: []string{"Function", "create (s)", "image (MiB)", "state (MiB)",
			"stale pool (MiB)", "zero pages"},
	}
	fns := o.functions()
	// Creation is not a cold start, so it fans out on the job pool
	// directly: each job arms its own host like any cell's and deposits
	// into its slot.
	times := make([]time.Duration, len(fns))
	imgs := make([]*snapshot.MemoryImage, len(fns))
	reps := make([]*obs.Report, len(fns))
	cfg := o.config(Config{})
	err := o.runJobs(len(fns), func(i int) error {
		fn := fns[i]
		h := testbed.Arm(vmm.NewHost(blockdev.MicronSATA5300()), "", testbed.Arming{
			Faults: cfg.Faults, Check: cfg.Check, Obs: cfg.Obs,
		})
		var createErr error
		h.Eng.Go("create", func(p *sim.Proc) {
			start := p.Now()
			imgs[i], createErr = h.CreateSnapshotImage(p, fn, false)
			times[i] = p.Now().Sub(start)
		})
		h.Eng.Run()
		if createErr != nil {
			return fmt.Errorf("create %s: %w", fn.Name, createErr)
		}
		rep, _, err := h.Finish()
		if err != nil {
			return fmt.Errorf("check create %s: %w", fn.Name, err)
		}
		reps[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, fn := range fns {
		o.sink(fn.Name, reps[i])
		img := imgs[i]
		var stalePool int64
		for pg := img.StatePages; pg < img.NrPages; pg++ {
			if img.PageTags[pg] != 0 {
				stalePool++
			}
		}
		o.progress("ext-snapshot-creation %-10s create=%v", fn.Name, times[i])
		t.AddRow(fn.Name,
			secs(times[i]),
			fmt.Sprintf("%.0f", units.PagesToMiB(img.NrPages)),
			fmt.Sprintf("%.0f", units.PagesToMiB(img.StatePages)),
			fmt.Sprintf("%.0f", units.PagesToMiB(stalePool)),
			fmt.Sprintf("%d", img.ZeroPages()))
	}
	return t, nil
}

// ExtSteadyState models a production node: repeated bursts of cold
// starts of the same function, with sandboxes torn down in between.
// Wave 1 is a true cold start; later waves find the working set warm
// in the page cache for cache-based schemes, while userfaultfd-based
// schemes rebuild their private copies from storage every wave.
func ExtSteadyState(o Options) (*Table, error) {
	const waves, perWave = 3, 5
	t := &Table{
		ID:    "ext-steady-state",
		Title: fmt.Sprintf("Steady state: %d waves x %d sandboxes, mean E2E (s) per wave", waves, perWave),
		Columns: []string{"Function", "scheme", "wave 1", "wave 2", "wave 3",
			"device (MiB)", "peak mem (GiB)"},
	}
	fns := o.functions()
	schemes := []Scheme{SchemeREAP, SchemeSnapBPF}
	// Wave runs are independent per (function, scheme); fan them out
	// on the job pool and render from the index-ordered results.
	results := make([]*WavesResult, len(fns)*len(schemes))
	err := o.runJobs(len(results), func(i int) error {
		fn, s := fns[i/len(schemes)], schemes[i%len(schemes)]
		res, err := RunWaves(fn, s, waves, 2*time.Second, o.config(Config{N: perWave}))
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for fi, fn := range fns {
		for si, s := range schemes {
			res := results[fi*len(schemes)+si]
			o.progress("ext-steady-state %-10s %-8s waves=%v", fn.Name, s.Name, res.WaveE2E)
			o.sink(fn.Name+"/"+s.Name, res.Obs)
			t.AddRow(fn.Name, res.Scheme,
				secs(res.WaveE2E[0]), secs(res.WaveE2E[1]), secs(res.WaveE2E[2]),
				fmt.Sprintf("%.1f", float64(res.DeviceBytes)/(1<<20)),
				fmt.Sprintf("%.2f", float64(res.PeakMemory)/(1<<30)))
		}
	}
	return t, nil
}

// ExtCachePressure bounds the host page cache and reruns the
// 10-instance comparison: deduplication via the page cache assumes the
// cache can hold the working set; under pressure, shared pages get
// reclaimed and refetched, while REAP's private anonymous copies are
// untouchable by reclaim — a regime the paper's 128GiB testbed never
// enters.
func ExtCachePressure(o Options) (*Table, error) {
	t := &Table{
		ID:    "ext-cache-pressure",
		Title: "Page-cache pressure: E2E (s) and evictions at 10 instances",
		Note:  "limit expressed as a multiple of the function's working set",
		Columns: []string{"Function/limit", "Linux-RA", "SnapBPF", "REAP",
			"SnapBPF evictions", "SnapBPF refetch (MiB)"},
	}
	fns := o.functions()
	mults := []float64{0, 2.0, 1.0, 0.5}
	schemes := []Scheme{SchemeLinuxRA, SchemeSnapBPF, SchemeREAP}
	label := func(mult float64) string {
		if mult > 0 {
			return fmt.Sprintf("%.1fx", mult)
		}
		return "inf"
	}
	var cells []Cell
	for _, fn := range fns {
		wsPages := fn.WSPages()
		for _, mult := range mults {
			limit := int64(0)
			if mult > 0 {
				limit = int64(float64(wsPages) * mult)
			}
			for _, s := range schemes {
				cells = append(cells, Cell{Fn: fn, Scheme: s, Cfg: Config{N: 10, CacheLimitPages: limit}})
			}
		}
	}
	rs, err := RunCells(o, cells)
	if err != nil {
		return nil, err
	}
	for fi, fn := range fns {
		wsPages := fn.WSPages()
		for mi, mult := range mults {
			base := (fi*len(mults) + mi) * len(schemes)
			ra, sb, rp := rs[base], rs[base+1], rs[base+2]
			refetch := float64(sb.DeviceBytes-int64(units.PagesToBytes(int64(wsPages)))) / float64(units.MiB)
			if refetch < 0 {
				refetch = 0
			}
			o.progress("ext-cache-pressure %-10s limit=%-4s snapbpf=%v evict=%d",
				fn.Name, label(mult), sb.MeanE2E, sb.Evictions)
			t.AddRow(fmt.Sprintf("%s/%s", fn.Name, label(mult)),
				secs(ra.MeanE2E), secs(sb.MeanE2E), secs(rp.MeanE2E),
				fmt.Sprintf("%d", sb.Evictions),
				fmt.Sprintf("%.1f", refetch))
		}
	}
	return t, nil
}

// ExtColocation runs sandboxes of several different functions on one
// host concurrently — the multi-tenant node scenario — comparing
// aggregate memory and per-function latency under REAP and SnapBPF.
func ExtColocation(o Options) (*Table, error) {
	fns := o.functions()
	if len(fns) > 5 {
		fns = fns[:5]
	}
	t := &Table{
		ID:    "ext-colocation",
		Title: fmt.Sprintf("Co-location: %d functions x 2 sandboxes each on one host", len(fns)),
		Columns: []string{"Scheme", "host memory (GiB)", "device (MiB)",
			"mean E2E across functions (s)"},
	}
	schemes := []Scheme{SchemeREAP, SchemeSnapBPF}
	results := make([]*MixedResult, len(schemes))
	err := o.runJobs(len(schemes), func(i int) error {
		res, err := RunMixed(fns, schemes[i], o.config(Config{N: 2}))
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for si, s := range schemes {
		res := results[si]
		var sum time.Duration
		for _, d := range res.PerFunction {
			sum += d
		}
		mean := sum / time.Duration(len(res.PerFunction))
		o.progress("ext-colocation %-8s mem=%v mean=%v", s.Name, res.SystemMemory, mean)
		o.sink(s.Name, res.Obs)
		t.AddRow(s.Name,
			fmt.Sprintf("%.2f", float64(res.SystemMemory)/(1<<30)),
			fmt.Sprintf("%.1f", float64(res.DeviceBytes)/(1<<20)),
			secs(mean))
	}
	return t, nil
}
