package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"snapbpf/internal/prefetch"
	"snapbpf/internal/workload"
)

// Cell is one independent measurement: a (function, scheme, config)
// triple. Every cell builds its own simulated host, engine and
// prefetcher inside Run, so cells share no mutable state and can
// execute on any OS thread in any order without changing their
// results — determinism lives inside each engine, not between them.
type Cell struct {
	Fn     workload.Function
	Scheme Scheme
	Cfg    Config
	// Probe, when set, reads what a table needs from the cell's
	// prefetcher once the run has ended (its working set, its
	// counters); the columns it returns land in RunResult.Probe.
	Probe func(prefetch.Prefetcher) []string
}

// workers resolves the pool width: Options.Parallel if positive,
// otherwise one worker per available CPU.
func (o Options) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// runJobs executes job(0) .. job(n-1) on the configured number of
// workers and returns the error of the lowest-indexed failing job.
// Jobs are claimed from an atomic counter, so workers stay busy while
// any remain; results and errors are collected by index, which keeps
// the outcome — including which error is reported — independent of
// completion order. A panicking job is converted into an error rather
// than taking the whole process down.
func (o Options) runJobs(n int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := o.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := runJob(job, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = runJob(job, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runJob invokes one job with panic recovery.
func runJob(job func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return job(i)
}

// config lays the run-wide options over one run's own config: a
// fault plan, observability setup or store setup the run sets itself
// wins, and Check arms the checker everywhere.
func (o Options) config(cfg Config) Config {
	if cfg.Faults == nil {
		cfg.Faults = o.Faults
	}
	if o.Check {
		cfg.Check = true
	}
	if cfg.Obs == nil {
		cfg.Obs = o.Obs
	}
	if cfg.Store == nil {
		cfg.Store = o.Store
	}
	return cfg
}

// RunCells executes every cell and returns results in cell order.
// Scheduling is work-stealing over Options.Parallel workers (default:
// GOMAXPROCS); collection is order-preserving, so the returned slice —
// and any table built from it — is byte-identical between serial and
// parallel execution. On failure the error of the lowest-indexed
// failing cell is returned along with the results that did complete
// (failed cells are nil).
func RunCells(o Options, cells []Cell) ([]*RunResult, error) {
	out := make([]*RunResult, len(cells))
	err := o.runJobs(len(cells), func(i int) error {
		c := cells[i]
		r, err := run(c.Fn, c.Scheme, o.config(c.Cfg), c.Probe)
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	// Deliver observability reports only after the whole batch settled,
	// walking cells in index order: the sink sees the same sequence no
	// matter how the pool interleaved the runs.
	if o.ObsSink != nil {
		for _, r := range out {
			if r != nil {
				o.sink(fmt.Sprintf("%s/%s/n%d", r.Scheme, r.Function, r.N), r.Obs)
			}
		}
	}
	return out, err
}
