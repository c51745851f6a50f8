package experiments

import (
	"fmt"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/core"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/prefetch/faasnap"
	"snapbpf/internal/prefetch/reap"
	"snapbpf/internal/units"
	"snapbpf/internal/workload"
)

// Ablation experiments: design-choice sensitivity studies the paper's
// text motivates but does not plot.

// AblationGrouping quantifies §3.1's offset grouping: per-page
// prefetch requests versus contiguous ranges ("we do minimize the
// number of block requests the kernel issues to storage by grouping
// the pages into contiguous ranges, to reduce SW overhead").
func AblationGrouping(o Options) (*Table, error) {
	grouped := Scheme{Name: "SnapBPF", New: func() prefetch.Prefetcher { return core.New() }}
	perPage := Scheme{Name: "SnapBPF-per-page", New: func() prefetch.Prefetcher {
		s := core.New()
		s.DisableGrouping = true
		s.SetName("SnapBPF-per-page")
		return s
	}}
	t := &Table{
		ID:      "ablation-grouping",
		Title:   "Offset grouping: contiguous ranges vs per-page requests",
		Columns: []string{"Function", "grouped E2E (s)", "per-page E2E (s)", "grouped reqs", "per-page reqs", "load grouped (ms)", "load per-page (ms)"},
	}
	fns := o.functions()
	rs, err := RunCells(o, grid(fns, []Scheme{grouped, perPage}, Config{N: 1}))
	if err != nil {
		return nil, err
	}
	for fi, fn := range fns {
		g, p := rs[2*fi], rs[2*fi+1]
		o.progress("ablation-grouping %-10s grouped=%v per-page=%v", fn.Name, g.MeanE2E, p.MeanE2E)
		t.AddRow(fn.Name, secs(g.MeanE2E), secs(p.MeanE2E),
			fmt.Sprintf("%d", g.DeviceRequests), fmt.Sprintf("%d", p.DeviceRequests),
			fmt.Sprintf("%.3f", g.OffsetLoad.Seconds()*1000),
			fmt.Sprintf("%.3f", p.OffsetLoad.Seconds()*1000))
	}
	return t, nil
}

// AblationSort quantifies §3.1's earliest-access group ordering
// against plain file-offset order.
func AblationSort(o Options) (*Table, error) {
	sorted := Scheme{Name: "SnapBPF", New: func() prefetch.Prefetcher { return core.New() }}
	offset := Scheme{Name: "SnapBPF-offset-order", New: func() prefetch.Prefetcher {
		s := core.New()
		s.OffsetOrder = true
		s.SetName("SnapBPF-offset-order")
		return s
	}}
	t := &Table{
		ID:      "ablation-sort",
		Title:   "Prefetch issue order: earliest-access vs file-offset",
		Columns: []string{"Function", "access-order E2E (s)", "offset-order E2E (s)", "delta"},
	}
	fns := o.functions()
	rs, err := RunCells(o, grid(fns, []Scheme{sorted, offset}, Config{N: 1}))
	if err != nil {
		return nil, err
	}
	for fi, fn := range fns {
		a, b := rs[2*fi], rs[2*fi+1]
		o.progress("ablation-sort %-10s access=%v offset=%v", fn.Name, a.MeanE2E, b.MeanE2E)
		t.AddRow(fn.Name, secs(a.MeanE2E), secs(b.MeanE2E), ratio(b.MeanE2E, a.MeanE2E)+"x")
	}
	return t, nil
}

// AblationCoW reproduces the §4 Memory paragraph: unpatched KVM
// forcibly write-maps read nested faults, CoWing page-cache pages and
// destroying deduplication.
func AblationCoW(o Options) (*Table, error) {
	patched := Scheme{Name: "SnapBPF", New: func() prefetch.Prefetcher { return core.New() }}
	unpatched := Scheme{Name: "SnapBPF-unpatched-KVM", New: func() prefetch.Prefetcher {
		s := core.New()
		s.UnpatchedKVM = true
		s.SetName("SnapBPF-unpatched-KVM")
		return s
	}}
	t := &Table{
		ID:      "ablation-cow",
		Title:   "KVM CoW patch: memory at 10 concurrent instances (GiB)",
		Note:    "unpatched KVM write-maps read faults, forcing CoW of shared pages",
		Columns: []string{"Function", "patched", "unpatched", "inflation"},
	}
	gib := func(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<30)) }
	fns := o.functions()
	rs, err := RunCells(o, grid(fns, []Scheme{patched, unpatched}, Config{N: 10}))
	if err != nil {
		return nil, err
	}
	for fi, fn := range fns {
		a, b := rs[2*fi], rs[2*fi+1]
		o.progress("ablation-cow %-10s patched=%v unpatched=%v", fn.Name, a.SystemMemory, b.SystemMemory)
		t.AddRow(fn.Name, gib(int64(a.SystemMemory)), gib(int64(b.SystemMemory)),
			fmt.Sprintf("%.1fx", float64(b.SystemMemory)/float64(a.SystemMemory)))
	}
	return t, nil
}

// AblationCoalesce sweeps FaaSnap's region-coalescing gap, exposing
// the §2.1 trade-off: fewer mmap regions vs working-set file
// inflation and I/O amplification.
func AblationCoalesce(o Options) (*Table, error) {
	gaps := []int64{0, 8, 32, 128, 512}
	t := &Table{
		ID:      "ablation-coalesce",
		Title:   "FaaSnap coalescing gap sweep: regions vs I/O amplification",
		Columns: []string{"Function/gap", "regions", "WS file (MiB)", "inflation", "E2E (s)"},
	}
	type item struct {
		fn  workload.Function
		gap int64
	}
	var items []item
	for _, fn := range o.functions() {
		for _, gap := range gaps {
			items = append(items, item{fn, gap})
		}
	}
	// The table needs each cell's FaaSnap instance (for its working
	// set), so every cell's factory deposits the prefetcher it built
	// into the cell's own slot; RunCells's completion barrier orders
	// those writes before the reads below.
	pfs := make([]*faasnap.FaaSnap, len(items))
	cells := make([]Cell, len(items))
	for idx, it := range items {
		idx, gap := idx, it.gap
		cells[idx] = Cell{Fn: it.fn, Scheme: Scheme{Name: "FaaSnap", New: func() prefetch.Prefetcher {
			f := faasnap.New()
			f.CoalesceGap = gap
			pfs[idx] = f
			return f
		}}, Cfg: Config{N: 1}}
	}
	rs, err := RunCells(o, cells)
	if err != nil {
		return nil, err
	}
	for idx, it := range items {
		res, ws := rs[idx], pfs[idx].WorkingSet()
		o.progress("ablation-coalesce %-10s gap=%-4d regions=%d E2E=%v",
			it.fn.Name, it.gap, len(ws.Regions), res.MeanE2E)
		t.AddRow(fmt.Sprintf("%s/gap=%d", it.fn.Name, it.gap),
			fmt.Sprintf("%d", len(ws.Regions)),
			fmt.Sprintf("%.1f", units.PagesToMiB(ws.TotalPages())),
			fmt.Sprintf("%.2fx", ws.Inflation()),
			secs(res.MeanE2E))
	}
	return t, nil
}

// AblationDirectIO compares REAP's direct-I/O working-set reads with
// buffered reads (§2.1: REAP and Faast "use direct IO when fetching
// the snapshot from storage, to bypass the page cache and avoid the
// overhead of intermediate memory copies").
func AblationDirectIO(o Options) (*Table, error) {
	direct := Scheme{Name: "REAP", New: func() prefetch.Prefetcher { return reap.New() }}
	buffered := Scheme{Name: "REAP-buffered", New: func() prefetch.Prefetcher {
		r := reap.New()
		r.DirectIO = false
		return r
	}}
	t := &Table{
		ID:      "ablation-directio",
		Title:   "REAP working-set fetch: direct vs buffered I/O",
		Columns: []string{"Function", "direct E2E (s)", "buffered E2E (s)", "buffered/direct"},
	}
	fns := o.functions()
	rs, err := RunCells(o, grid(fns, []Scheme{direct, buffered}, Config{N: 1}))
	if err != nil {
		return nil, err
	}
	for fi, fn := range fns {
		a, b := rs[2*fi], rs[2*fi+1]
		o.progress("ablation-directio %-10s direct=%v buffered=%v", fn.Name, a.MeanE2E, b.MeanE2E)
		t.AddRow(fn.Name, secs(a.MeanE2E), secs(b.MeanE2E), ratio(b.MeanE2E, a.MeanE2E)+"x")
	}
	return t, nil
}

// AblationRAWindow sweeps the Linux readahead window for the
// demand-paging baseline (the paper pins it at the 128KiB default).
func AblationRAWindow(o Options) (*Table, error) {
	windows := []int64{0, 8, 32, 128, 512}
	t := &Table{
		ID:      "ablation-rawindow",
		Title:   "Linux readahead window sweep (pages)",
		Columns: []string{"Function/window", "E2E (s)", "device MiB", "requests"},
	}
	fns := o.functions()
	var cells []Cell
	for _, fn := range fns {
		for _, w := range windows {
			w := w
			cells = append(cells, Cell{Fn: fn, Scheme: Scheme{Name: fmt.Sprintf("Linux-RA-%d", w),
				New: func() prefetch.Prefetcher {
					return prefetch.NewLinuxWithWindow(w, fmt.Sprintf("Linux-RA-%d", w))
				}}, Cfg: Config{N: 1}})
		}
	}
	rs, err := RunCells(o, cells)
	if err != nil {
		return nil, err
	}
	for fi, fn := range fns {
		for wi, w := range windows {
			res := rs[fi*len(windows)+wi]
			o.progress("ablation-rawindow %-10s w=%-4d E2E=%v", fn.Name, w, res.MeanE2E)
			t.AddRow(fmt.Sprintf("%s/w=%d", fn.Name, w), secs(res.MeanE2E),
				fmt.Sprintf("%.1f", float64(res.DeviceBytes)/(1<<20)),
				fmt.Sprintf("%d", res.DeviceRequests))
		}
	}
	return t, nil
}

// AblationDrift perturbs the guest allocator between record and
// invocation, probing each scheme's sensitivity to working-set drift
// for ephemeral allocations (§2.2: "the working set pages will differ
// between invocations").
func AblationDrift(o Options) (*Table, error) {
	schemes := []Scheme{SchemeREAP, SchemeFaast, SchemeSnapBPF}
	t := &Table{
		ID:      "ablation-drift",
		Title:   "Allocator drift sensitivity: E2E (s) with drifted free lists",
		Columns: []string{"Function", "REAP", "REAP+drift", "Faast", "Faast+drift", "SnapBPF", "SnapBPF+drift"},
	}
	fns := o.functions()
	cfgs := []Config{{N: 1}, {N: 1, AllocDrift: 3}}
	var cells []Cell
	for _, fn := range fns {
		for _, s := range schemes {
			for _, cfg := range cfgs {
				cells = append(cells, Cell{Fn: fn, Scheme: s, Cfg: cfg})
			}
		}
	}
	rs, err := RunCells(o, cells)
	if err != nil {
		return nil, err
	}
	for fi, fn := range fns {
		row := []string{fn.Name}
		for si, s := range schemes {
			base := rs[(fi*len(schemes)+si)*2]
			drift := rs[(fi*len(schemes)+si)*2+1]
			o.progress("ablation-drift %-10s %-8s base=%v drift=%v", fn.Name, s.Name, base.MeanE2E, drift.MeanE2E)
			row = append(row, secs(base.MeanE2E), secs(drift.MeanE2E))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationHDD reruns Fig3a-style comparisons on a spindle disk,
// probing the paper's premise that modern SSDs make non-sequential
// working-set reads from the snapshot file affordable (§3.1).
func AblationHDD(o Options) (*Table, error) {
	t := &Table{
		ID:      "ablation-hdd",
		Title:   "Storage sensitivity: E2E (s) on SSD vs 7200rpm HDD",
		Note:    "SnapBPF reads the WS non-sequentially from the snapshot; REAP reads a sequential WS file",
		Columns: []string{"Function", "SnapBPF SSD", "SnapBPF HDD", "REAP SSD", "REAP HDD"},
	}
	fns := o.functions()
	schemes := []Scheme{SchemeSnapBPF, SchemeREAP}
	cfgs := []Config{{N: 1}, {N: 1, Device: blockdev.SpindleHDD()}}
	var cells []Cell
	for _, fn := range fns {
		for _, s := range schemes {
			for _, cfg := range cfgs {
				cells = append(cells, Cell{Fn: fn, Scheme: s, Cfg: cfg})
			}
		}
	}
	rs, err := RunCells(o, cells)
	if err != nil {
		return nil, err
	}
	for fi, fn := range fns {
		row := []string{fn.Name}
		for si, s := range schemes {
			ssd := rs[(fi*len(schemes)+si)*2]
			hdd := rs[(fi*len(schemes)+si)*2+1]
			o.progress("ablation-hdd %-10s %-8s ssd=%v hdd=%v", fn.Name, s.Name, ssd.MeanE2E, hdd.MeanE2E)
			row = append(row, secs(ssd.MeanE2E), secs(hdd.MeanE2E))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// All returns every experiment keyed by id, in report order.
func All() []struct {
	ID  string
	Run func(Options) (*Table, error)
} {
	return []struct {
		ID  string
		Run func(Options) (*Table, error)
	}{
		{"table1", Table1},
		{"fig3a", Fig3a},
		{"fig3b", Fig3b},
		{"fig3c", Fig3c},
		{"fig4", Fig4},
		{"overheads", Overheads},
		{"ablation-grouping", AblationGrouping},
		{"ablation-sort", AblationSort},
		{"ablation-cow", AblationCoW},
		{"ablation-coalesce", AblationCoalesce},
		{"ablation-directio", AblationDirectIO},
		{"ablation-rawindow", AblationRAWindow},
		{"ablation-drift", AblationDrift},
		{"ablation-hdd", AblationHDD},
		{"chaos", Chaos},
		{"ext-varying-inputs", ExtVaryingInputs},
		{"ext-concurrency", ExtConcurrency},
		{"ext-cost-analysis", ExtCostAnalysis},
		{"ext-colocation", ExtColocation},
		{"ext-devices", ExtDevices},
		{"ext-snapshot-creation", ExtSnapshotCreation},
		{"ext-cache-pressure", ExtCachePressure},
		{"ext-steady-state", ExtSteadyState},
		{"cluster", Cluster},
		{"locality", Locality},
	}
}
