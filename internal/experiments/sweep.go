package experiments

import (
	"fmt"
	"strings"
	"time"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/core"
	"snapbpf/internal/costmodel"
	"snapbpf/internal/faults"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/prefetch/faasnap"
	"snapbpf/internal/prefetch/reap"
	"snapbpf/internal/units"
	"snapbpf/internal/workload"
)

// Experiment is one reproducible table: its id and how to regenerate it.
type Experiment struct {
	ID  string
	Run func(Options) (*Table, error)
}

// All returns every experiment in report order.
func All() []Experiment {
	sweeps := table()
	out := make([]Experiment, len(sweeps))
	for i, e := range sweeps {
		out[i] = Experiment{ID: e.id, Run: e.code}
		if e.code == nil {
			out[i].Run = e.run
		}
	}
	return out
}

// sweep is an experiment declared as data: the paper's figures, the
// ablations and most extensions compare schemes along one axis, so
// each is a column header plus, per function, the rows of its table.
// An entry with code set has another shape and is a function instead.
type sweep struct {
	id, title, note string
	columns         []string
	rows            func(fn workload.Function) []row
	code            func(Options) (*Table, error)
}

// row is one table row: its key (the first column), the cells it
// measures, Fn left for the engine to fill in, and its other columns
// formatted from those cells' results, in cell order.
type row struct {
	key    string
	cells  []Cell
	format func(rs []*RunResult) []string
}

// run measures a sweep. It takes every row's cells in row order, runs
// them as one batch and hands each row its own slice of the results.
// Cell order is row order, so ObsSink reports, and every trace or
// metrics document built from them, arrive in the order the table
// declares its rows.
func (s sweep) run(o Options) (*Table, error) {
	var rows []row
	var batch []Cell
	for _, fn := range o.functions() {
		for _, r := range s.rows(fn) {
			for _, c := range r.cells {
				c.Fn = fn
				batch = append(batch, c)
			}
			rows = append(rows, r)
		}
	}
	rs, err := RunCells(o, batch)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: s.id, Title: s.title, Note: s.note, Columns: s.columns}
	for _, r := range rows {
		cols := append([]string{r.key}, r.format(rs[:len(r.cells)])...)
		rs = rs[len(r.cells):]
		if len(cols) != len(s.columns) {
			return nil, fmt.Errorf("%s: row %s has %d columns, want %d", s.id, r.key, len(cols), len(s.columns))
		}
		o.progress("%s %s", s.id, strings.Join(cols, " "))
		t.AddRow(cols...)
	}
	return t, nil
}

// cells runs each scheme under each config, scheme by scheme.
func cells(schemes []Scheme, cfgs ...Config) []Cell {
	var out []Cell
	for _, s := range schemes {
		for _, cfg := range cfgs {
			out = append(out, Cell{Scheme: s, Cfg: cfg})
		}
	}
	return out
}

// one is the single row of a sweep with one row per function.
func one(fn workload.Function, cs []Cell, format func(rs []*RunResult) []string) []row {
	return []row{{key: fn.Name, cells: cs, format: format}}
}

// each maps every point of a sweep's axis to a row.
func each[T any](points []T, r func(T) row) []row {
	rows := make([]row, len(points))
	for i, p := range points {
		rows[i] = r(p)
	}
	return rows
}

// e2es formats every result's mean E2E.
func e2es(rs []*RunResult) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = secs(r.MeanE2E)
	}
	return out
}

func gib(b units.ByteSize) string { return fmt.Sprintf("%.2f", float64(b)/(1<<30)) }

// variant is a named SnapBPF with one design choice changed.
func variant(name string, edit func(*core.SnapBPF)) Scheme {
	return Scheme{Name: name, New: func() prefetch.Prefetcher {
		s := core.New()
		edit(s)
		s.SetName(name)
		return s
	}}
}

var fig3bSchemes = []Scheme{SchemeLinuxNoRA, SchemeLinuxRA, SchemeREAP, SchemeSnapBPF}

// ChaosSeed keys the chaos experiment's fault plans. It is fixed so
// the experiment is reproducible by construction: rerunning chaos
// yields byte-identical tables.
const ChaosSeed = 1

// table returns every experiment, in report order. It is built on
// call, not held in a package variable, so a binary that never calls
// All (the end-to-end benchmark) does not link every experiment in.
func table() []sweep {
	return []sweep{
		{id: "table1", code: Table1},

		// Figure 3a: end-to-end latency of a single instance under REAP,
		// FaaSnap and SnapBPF. The paper plots it normalized to SnapBPF;
		// the absolute SnapBPF seconds are included for reference.
		{
			id:      "fig3a",
			title:   "E2E function latency, single instance (normalized to SnapBPF)",
			note:    "norm = scheme E2E / SnapBPF E2E; lower is better",
			columns: []string{"Function", "REAP", "FaaSnap", "SnapBPF", "SnapBPF (s)"},
			rows: func(fn workload.Function) []row {
				return one(fn, cells([]Scheme{SchemeREAP, SchemeFaaSnap, SchemeSnapBPF}, Config{N: 1}),
					func(rs []*RunResult) []string {
						return []string{ratio(rs[0].MeanE2E, rs[2].MeanE2E), ratio(rs[1].MeanE2E, rs[2].MeanE2E),
							"1.00", secs(rs[2].MeanE2E)}
					})
			},
		},

		// Figure 3b: end-to-end latency of 10 concurrent instances of one
		// function (absolute seconds, as in the paper).
		{
			id:      "fig3b",
			title:   "E2E function latency (s), 10 concurrent instances",
			columns: []string{"Function", "Linux-NoRA", "Linux-RA", "REAP", "SnapBPF", "REAP/SnapBPF"},
			rows: func(fn workload.Function) []row {
				return one(fn, cells(fig3bSchemes, Config{N: 10}), func(rs []*RunResult) []string {
					return append(e2es(rs), ratio(rs[2].MeanE2E, rs[3].MeanE2E)+"x")
				})
			},
		},

		// Figure 3c: system-wide memory of 10 concurrent instances (GiB,
		// as in the paper).
		{
			id:      "fig3c",
			title:   "Memory consumption (GiB), 10 concurrent instances",
			columns: []string{"Function", "Linux-NoRA", "Linux-RA", "REAP", "SnapBPF", "REAP/SnapBPF"},
			rows: func(fn workload.Function) []row {
				return one(fn, cells(fig3bSchemes, Config{N: 10}), func(rs []*RunResult) []string {
					return []string{gib(rs[0].SystemMemory), gib(rs[1].SystemMemory), gib(rs[2].SystemMemory),
						gib(rs[3].SystemMemory), fmt.Sprintf("%.1fx", float64(rs[2].SystemMemory)/float64(rs[3].SystemMemory))}
				})
			},
		},

		// Figure 4: SnapBPF's two mechanisms broken down, as invocation
		// latency normalized to Linux-RA: (i) PV PTE marking alone and
		// (ii) PV PTE marking plus eBPF prefetching.
		{
			id:      "fig4",
			title:   "Mechanism breakdown: normalized invocation latency vs Linux-RA",
			note:    "lower is better; 0.50 means 2x faster than Linux-RA",
			columns: []string{"Function", "Linux-RA", "PVPTEs", "SnapBPF"},
			rows: func(fn workload.Function) []row {
				return one(fn, cells([]Scheme{SchemeLinuxRA, SchemePVOnly, SchemeSnapBPF}, Config{N: 1}),
					func(rs []*RunResult) []string {
						return []string{"1.00", ratio(rs[1].MeanE2E, rs[0].MeanE2E), ratio(rs[2].MeanE2E, rs[0].MeanE2E)}
					})
			},
		},

		// §4 "SnapBPF Overheads": the latency of loading the captured
		// offsets into the kernel through the eBPF map, absolute and as a
		// share of E2E.
		{
			id:      "overheads",
			title:   "SnapBPF offset-loading overhead (eBPF map updates)",
			note:    "paper: ~1-2ms, <1% of E2E latency on average",
			columns: []string{"Function", "WS groups", "Load (ms)", "E2E (s)", "Load/E2E"},
			rows: func(fn workload.Function) []row {
				return one(fn, cells([]Scheme{SchemeSnapBPF}, Config{N: 1}), func(rs []*RunResult) []string {
					r := rs[0]
					return []string{fmt.Sprintf("%d", r.WSGroups),
						fmt.Sprintf("%.3f", float64(r.OffsetLoad)/float64(time.Millisecond)),
						secs(r.MeanE2E), fmt.Sprintf("%.2f%%", 100*float64(r.OffsetLoad)/float64(r.MeanE2E))}
				})
			},
		},

		// Ablations: design-choice sensitivity studies the paper's text
		// motivates but does not plot.

		// §3.1's offset grouping: per-page prefetch requests against
		// contiguous ranges ("we do minimize the number of block requests
		// the kernel issues to storage by grouping the pages into
		// contiguous ranges, to reduce SW overhead").
		{
			id:      "ablation-grouping",
			title:   "Offset grouping: contiguous ranges vs per-page requests",
			columns: []string{"Function", "grouped E2E (s)", "per-page E2E (s)", "grouped reqs", "per-page reqs", "load grouped (ms)", "load per-page (ms)"},
			rows: func(fn workload.Function) []row {
				perPage := variant("SnapBPF-per-page", func(s *core.SnapBPF) { s.DisableGrouping = true })
				return one(fn, cells([]Scheme{SchemeSnapBPF, perPage}, Config{N: 1}), func(rs []*RunResult) []string {
					g, p := rs[0], rs[1]
					return []string{secs(g.MeanE2E), secs(p.MeanE2E),
						fmt.Sprintf("%d", g.DeviceRequests), fmt.Sprintf("%d", p.DeviceRequests),
						fmt.Sprintf("%.3f", g.OffsetLoad.Seconds()*1000), fmt.Sprintf("%.3f", p.OffsetLoad.Seconds()*1000)}
				})
			},
		},

		// §3.1's earliest-access group ordering against plain file-offset
		// order.
		{
			id:      "ablation-sort",
			title:   "Prefetch issue order: earliest-access vs file-offset",
			columns: []string{"Function", "access-order E2E (s)", "offset-order E2E (s)", "delta"},
			rows: func(fn workload.Function) []row {
				offset := variant("SnapBPF-offset-order", func(s *core.SnapBPF) { s.OffsetOrder = true })
				return one(fn, cells([]Scheme{SchemeSnapBPF, offset}, Config{N: 1}), func(rs []*RunResult) []string {
					return append(e2es(rs), ratio(rs[1].MeanE2E, rs[0].MeanE2E)+"x")
				})
			},
		},

		// The §4 Memory paragraph: unpatched KVM forcibly write-maps read
		// nested faults, CoWing page-cache pages and destroying
		// deduplication.
		{
			id:      "ablation-cow",
			title:   "KVM CoW patch: memory at 10 concurrent instances (GiB)",
			note:    "unpatched KVM write-maps read faults, forcing CoW of shared pages",
			columns: []string{"Function", "patched", "unpatched", "inflation"},
			rows: func(fn workload.Function) []row {
				unpatched := variant("SnapBPF-unpatched-KVM", func(s *core.SnapBPF) { s.UnpatchedKVM = true })
				return one(fn, cells([]Scheme{SchemeSnapBPF, unpatched}, Config{N: 10}), func(rs []*RunResult) []string {
					a, b := rs[0].SystemMemory, rs[1].SystemMemory
					return []string{gib(a), gib(b), fmt.Sprintf("%.1fx", float64(b)/float64(a))}
				})
			},
		},

		// FaaSnap's region-coalescing gap, swept: the §2.1 trade-off of
		// fewer mmap regions against working-set file inflation and I/O
		// amplification.
		{
			id:      "ablation-coalesce",
			title:   "FaaSnap coalescing gap sweep: regions vs I/O amplification",
			columns: []string{"Function/gap", "regions", "WS file (MiB)", "inflation", "E2E (s)"},
			rows: func(fn workload.Function) []row {
				return each([]int64{0, 8, 32, 128, 512}, func(gap int64) row {
					s := Scheme{Name: "FaaSnap", New: func() prefetch.Prefetcher {
						f := faasnap.New()
						f.CoalesceGap = gap
						return f
					}}
					c := Cell{Scheme: s, Cfg: Config{N: 1}, Probe: func(pf prefetch.Prefetcher) []string {
						ws := pf.(*faasnap.FaaSnap).WorkingSet()
						return []string{fmt.Sprintf("%d", len(ws.Regions)),
							fmt.Sprintf("%.1f", units.PagesToMiB(ws.TotalPages())), fmt.Sprintf("%.2fx", ws.Inflation())}
					}}
					return row{key: fmt.Sprintf("%s/gap=%d", fn.Name, gap), cells: []Cell{c},
						format: func(rs []*RunResult) []string { return append(rs[0].Probe, secs(rs[0].MeanE2E)) }}
				})
			},
		},

		// REAP's direct-I/O working-set reads against buffered reads (§2.1:
		// REAP and Faast "use direct IO when fetching the snapshot from
		// storage, to bypass the page cache and avoid the overhead of
		// intermediate memory copies").
		{
			id:      "ablation-directio",
			title:   "REAP working-set fetch: direct vs buffered I/O",
			columns: []string{"Function", "direct E2E (s)", "buffered E2E (s)", "buffered/direct"},
			rows: func(fn workload.Function) []row {
				buffered := Scheme{Name: "REAP-buffered", New: func() prefetch.Prefetcher {
					r := reap.New()
					r.DirectIO = false
					return r
				}}
				return one(fn, cells([]Scheme{SchemeREAP, buffered}, Config{N: 1}), func(rs []*RunResult) []string {
					return append(e2es(rs), ratio(rs[1].MeanE2E, rs[0].MeanE2E)+"x")
				})
			},
		},

		// The Linux readahead window of the demand-paging baseline, swept
		// (the paper pins it at the 128KiB default).
		{
			id:      "ablation-rawindow",
			title:   "Linux readahead window sweep (pages)",
			columns: []string{"Function/window", "E2E (s)", "device MiB", "requests"},
			rows: func(fn workload.Function) []row {
				return each([]int64{0, 8, 32, 128, 512}, func(w int64) row {
					name := fmt.Sprintf("Linux-RA-%d", w)
					s := Scheme{Name: name, New: func() prefetch.Prefetcher { return prefetch.NewLinuxWithWindow(w, name) }}
					return row{key: fmt.Sprintf("%s/w=%d", fn.Name, w), cells: cells([]Scheme{s}, Config{N: 1}),
						format: func(rs []*RunResult) []string {
							r := rs[0]
							return []string{secs(r.MeanE2E), fmt.Sprintf("%.1f", float64(r.DeviceBytes)/(1<<20)),
								fmt.Sprintf("%d", r.DeviceRequests)}
						}}
				})
			},
		},

		// The guest allocator perturbed between record and invocation,
		// probing each scheme's sensitivity to working-set drift for
		// ephemeral allocations (§2.2: "the working set pages will differ
		// between invocations").
		{
			id:      "ablation-drift",
			title:   "Allocator drift sensitivity: E2E (s) with drifted free lists",
			columns: []string{"Function", "REAP", "REAP+drift", "Faast", "Faast+drift", "SnapBPF", "SnapBPF+drift"},
			rows: func(fn workload.Function) []row {
				return one(fn, cells([]Scheme{SchemeREAP, SchemeFaast, SchemeSnapBPF}, Config{N: 1}, Config{N: 1, AllocDrift: 3}), e2es)
			},
		},

		// Fig3a-style comparisons on a spindle disk, probing the paper's
		// premise that modern SSDs make non-sequential working-set reads
		// from the snapshot file affordable (§3.1).
		{
			id:      "ablation-hdd",
			title:   "Storage sensitivity: E2E (s) on SSD vs 7200rpm HDD",
			note:    "SnapBPF reads the WS non-sequentially from the snapshot; REAP reads a sequential WS file",
			columns: []string{"Function", "SnapBPF SSD", "SnapBPF HDD", "REAP SSD", "REAP HDD"},
			rows: func(fn workload.Function) []row {
				return one(fn, cells([]Scheme{SchemeSnapBPF, SchemeREAP}, Config{N: 1}, Config{N: 1, Device: blockdev.SpindleHDD()}), e2es)
			},
		},

		// The fault sweep: every scheme, 10 concurrent sandboxes, against
		// a healthy device, a lightly faulty one and a heavily degraded
		// one. Every invocation must complete: faults are absorbed as
		// retries and demand-paging fallbacks and show up as latency, which
		// is the point: how gracefully each scheme degrades when the
		// storage stack misbehaves. The healthy level pins an explicit
		// disabled plan (rather than nil) so a CLI-wide -faults plan cannot
		// leak into the baseline column. Rows are keyed by function and
		// scheme, the scheme leading the formatted columns.
		{
			id:    "chaos",
			title: "E2E latency (s) under storage fault injection, 10 concurrent instances",
			note: fmt.Sprintf("seed=%d; slowdown = heavy E2E / healthy E2E; inj/retry/fb = injected faults, read retries, demand-paging fallbacks at heavy",
				ChaosSeed),
			columns: []string{"Function", "Scheme", "healthy", "light", "heavy", "slowdown", "inj", "retry", "fb"},
			rows: func(fn workload.Function) []row {
				schemes := []Scheme{SchemeLinuxRA, SchemeREAP, SchemeFaast, SchemeFaaSnap, SchemeSnapBPF}
				return each(schemes, func(s Scheme) row {
					healthy, light, heavy := faults.Plan{}, faults.Light(ChaosSeed), faults.Heavy(ChaosSeed)
					return row{key: fn.Name,
						cells: cells([]Scheme{s}, Config{N: 10, Faults: &healthy}, Config{N: 10, Faults: &light}, Config{N: 10, Faults: &heavy}),
						format: func(rs []*RunResult) []string {
							f := rs[2].Faults
							return append(append([]string{s.Name}, e2es(rs)...), ratio(rs[2].MeanE2E, rs[0].MeanE2E),
								fmt.Sprint(f.Injected()), fmt.Sprint(f.Retries), fmt.Sprint(f.Fallbacks))
						}}
				})
			},
		},

		// Extensions: studies the paper explicitly defers to future work,
		// built on the same harness.

		// The paper's deferred evaluation: "We consider evaluating the
		// effect of varying function inputs on SnapBPF's memory
		// deduplication for future work" (§4 Methodology). Every sandbox
		// receives a per-input trace variant (skipped regions, extra
		// writes); extra writes CoW shared snapshot pages into private
		// anonymous memory, eroding deduplication.
		{
			id:      "ext-varying-inputs",
			title:   "Input variance vs deduplication: SnapBPF memory (GiB) and REAP ratio, 10 instances",
			note:    "variance 0 = the paper's identical-input methodology",
			columns: []string{"Function/variance", "SnapBPF mem", "REAP mem", "REAP/SnapBPF", "SnapBPF E2E (s)"},
			rows: func(fn workload.Function) []row {
				return each([]float64{0, 0.25, 0.5, 1.0}, func(v float64) row {
					return row{key: fmt.Sprintf("%s/v=%.2f", fn.Name, v),
						cells: cells([]Scheme{SchemeSnapBPF, SchemeREAP}, Config{N: 10, InputVariance: v}),
						format: func(rs []*RunResult) []string {
							sb, rp := rs[0], rs[1]
							return []string{gib(sb.SystemMemory), gib(rp.SystemMemory),
								fmt.Sprintf("%.1fx", float64(rp.SystemMemory)/float64(sb.SystemMemory)), secs(sb.MeanE2E)}
						}}
				})
			},
		},

		// The sandbox count, swept, exposing where the schemes' storage and
		// memory scaling diverge (the paper fixes N at 1 and 10).
		{
			id:      "ext-concurrency",
			title:   "Concurrency sweep: mean E2E (s) per sandbox count",
			columns: []string{"Function/N", "REAP", "SnapBPF", "REAP/SnapBPF", "SnapBPF mem (GiB)"},
			rows: func(fn workload.Function) []row {
				return each([]int{1, 2, 5, 10, 20, 40}, func(n int) row {
					return row{key: fmt.Sprintf("%s/N=%d", fn.Name, n),
						cells: cells([]Scheme{SchemeREAP, SchemeSnapBPF}, Config{N: n}),
						format: func(rs []*RunResult) []string {
							return append(e2es(rs), ratio(rs[0].MeanE2E, rs[1].MeanE2E)+"x", gib(rs[1].SystemMemory))
						}}
				})
			},
		},

		// The "comprehensive analysis of the computational and memory
		// costs of SnapBPF" the paper defers (§4 Overheads): eBPF program
		// executions and their modelled CPU cost, kernel map memory, and
		// the offset-loading share of E2E, per function at 10 sandboxes.
		{
			id:    "ext-cost-analysis",
			title: "SnapBPF computational and memory costs (10 sandboxes)",
			columns: []string{"Function", "capture runs", "prefetch runs",
				"eBPF CPU (ms)", "map memory (KiB)", "load (ms)", "load/E2E"},
			rows: func(fn workload.Function) []row {
				c := Cell{Scheme: SchemeSnapBPF, Cfg: Config{N: 10}, Probe: snapBPFCosts}
				return one(fn, []Cell{c}, func(rs []*RunResult) []string {
					r := rs[0]
					return append(r.Probe, fmt.Sprintf("%.3f", r.OffsetLoad.Seconds()*1000),
						fmt.Sprintf("%.2f%%", 100*float64(r.OffsetLoad)/float64(r.MeanE2E)))
				})
			},
		},

		{id: "ext-colocation", code: ExtColocation},

		// The headline comparison across storage profiles (spindle HDD,
		// the paper's SATA SSD and a modern NVMe drive), extending the
		// paper's premise that device characteristics decide whether
		// skipping WS serialization is free (§3.1 and the authors' prior
		// storage-profile study).
		{
			id:      "ext-devices",
			title:   "Storage profiles: E2E (s) at 10 concurrent instances",
			columns: []string{"Function/device", "Linux-RA", "REAP", "SnapBPF", "REAP/SnapBPF"},
			rows: func(fn workload.Function) []row {
				devices := []blockdev.Params{blockdev.SpindleHDD(), blockdev.MicronSATA5300(), blockdev.NVMeGen4()}
				return each(devices, func(dev blockdev.Params) row {
					return row{key: fmt.Sprintf("%s/%s", fn.Name, dev.Name),
						cells: cells([]Scheme{SchemeLinuxRA, SchemeREAP, SchemeSnapBPF}, Config{N: 10, Device: dev}),
						format: func(rs []*RunResult) []string {
							return append(e2es(rs), ratio(rs[1].MeanE2E, rs[2].MeanE2E)+"x")
						}}
				})
			},
		},

		{id: "ext-snapshot-creation", code: ExtSnapshotCreation},

		// The host page cache bounded to a multiple of the function's
		// working set, under the 10-instance comparison: deduplication via
		// the page cache assumes the cache can hold the working set; under
		// pressure, shared pages get reclaimed and refetched, while REAP's
		// private anonymous copies are untouchable by reclaim, a regime the
		// paper's 128GiB testbed never enters.
		{
			id:    "ext-cache-pressure",
			title: "Page-cache pressure: E2E (s) and evictions at 10 instances",
			note:  "limit expressed as a multiple of the function's working set",
			columns: []string{"Function/limit", "Linux-RA", "SnapBPF", "REAP",
				"SnapBPF evictions", "SnapBPF refetch (MiB)"},
			rows: func(fn workload.Function) []row {
				wsPages := fn.WSPages()
				return each([]float64{0, 2.0, 1.0, 0.5}, func(mult float64) row {
					limit, label := int64(0), "inf"
					if mult > 0 {
						limit, label = int64(float64(wsPages)*mult), fmt.Sprintf("%.1fx", mult)
					}
					return row{key: fmt.Sprintf("%s/%s", fn.Name, label),
						cells: cells([]Scheme{SchemeLinuxRA, SchemeSnapBPF, SchemeREAP}, Config{N: 10, CacheLimitPages: limit}),
						format: func(rs []*RunResult) []string {
							sb := rs[1]
							refetch := float64(sb.DeviceBytes-int64(units.PagesToBytes(int64(wsPages)))) / float64(units.MiB)
							return append(e2es(rs), fmt.Sprintf("%d", sb.Evictions), fmt.Sprintf("%.1f", max(refetch, 0)))
						}}
				})
			},
		},

		{id: "ext-steady-state", code: ExtSteadyState},
		{id: "cluster", code: Cluster},
		{id: "locality", code: Locality},
	}
}

// snapBPFCosts reads a SnapBPF run's eBPF costs: capture and prefetch
// program executions, their modelled CPU time (one kprobe dispatch
// each) and the kernel-resident map memory: the ws hash map (16B per
// entry at capture) plus the per-sandbox schedule arrays (2 x 8B per
// group, plus conf) of 10 sandboxes.
func snapBPFCosts(pf prefetch.Prefetcher) []string {
	s := pf.(*core.SnapBPF)
	runs := s.CaptureProgRuns + s.PrefetchProgRuns
	ebpfCPU := time.Duration(runs) * costmodel.Default().KprobeDispatch
	var groups, wsPages int64
	if ws := s.WorkingSet(); ws != nil {
		groups, wsPages = int64(len(ws.Groups)), ws.TotalPages()
	}
	mapBytes := wsPages*16 + 10*(groups*16+4*8)
	return []string{fmt.Sprintf("%d", s.CaptureProgRuns), fmt.Sprintf("%d", s.PrefetchProgRuns),
		fmt.Sprintf("%.3f", ebpfCPU.Seconds()*1000), fmt.Sprintf("%d", mapBytes/1024)}
}
