package experiments

import (
	"fmt"
	"time"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/obs"
	"snapbpf/internal/sim"
	"snapbpf/internal/snapshot"
	"snapbpf/internal/testbed"
	"snapbpf/internal/units"
	"snapbpf/internal/vmm"
)

// Extension experiments: studies the paper explicitly defers to future
// work, built on the same harness.

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
