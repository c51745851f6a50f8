package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"snapbpf/internal/cluster"
	"snapbpf/internal/experiments"
	"snapbpf/internal/obs"
)

// outcome is one cell's result: run for a single-host cell, region for
// a cluster cell.
type outcome struct {
	run    *experiments.RunResult
	region *cluster.Result
	err    error
}

// runCell executes one cell. With metrics set it arms the obs metrics
// recorder, which observes without changing any simulated result.
func runCell(c *cell, metrics bool) (out outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = outcome{err: fmt.Errorf("%s: panic: %v", c.name, r)}
		}
	}()
	var oc *obs.Config
	if metrics {
		oc = &obs.Config{Metrics: true}
	}
	if c.region != nil {
		cfg := *c.region
		cfg.Obs = oc
		out.region, out.err = cluster.Run(cfg)
	} else {
		cfg := c.cfg
		cfg.Obs = oc
		out.run, out.err = experiments.Run(c.fn, c.scheme, cfg)
	}
	if out.err != nil {
		out.err = fmt.Errorf("%s: %w", c.name, out.err)
	}
	return out
}

// runRound runs every cell of the plan once on at most workers
// goroutines. Cells are in largest-first order and a free worker takes
// the next one, so the same cells overlap from run to run. With tr set,
// the round is traced: obs metrics, pprof labels and a span per cell.
func runRound(p *plan, workers int, tr *tracer, parent int) []outcome {
	outs := make([]outcome, len(p.cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(p.cells)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.cells) {
					return
				}
				c := &p.cells[i]
				if tr == nil {
					outs[i] = runCell(c, false)
					continue
				}
				id := tr.begin(c.name, parent)
				labels := pprof.Labels("workload", p.def.name, "cell", c.name)
				pprof.Do(context.Background(), labels, func(context.Context) {
					outs[i] = runCell(c, true)
				})
				tr.end(id)
			}
		}()
	}
	wg.Wait()
	return outs
}

// measured is the product of a sequence of rounds.
type measured struct {
	wall []time.Duration // wall time
	cpu  []time.Duration // process CPU time, all threads
	rss  []float64       // peak resident set, MiB
	sim  metrics         // simulated-clock metrics, equal in every round
	outs []outcome       // the first round's outcomes
}

// measure runs rounds until budget is spent, at least one. A round
// starts only when the previous round's duration still fits. Every
// round must pass verify and reproduce the first round's simulated
// metrics exactly; on failure the result holds the failing round.
// between, when set, runs before each round, outside its timing.
func measure(p *plan, workers int, budget time.Duration, tr *tracer, parent int, between func() error) (*measured, error) {
	m := &measured{}
	start := time.Now()
	for {
		if between != nil {
			if err := between(); err != nil {
				return m, err
			}
		}
		// Each round starts from a collected heap returned to the
		// kernel, so that rounds neither pay for each other's garbage
		// nor inherit each other's resident set.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return m, err
		}
		t, cpu := time.Now(), cpuTime()
		outs := runRound(p, workers, tr, parent)
		m.wall = append(m.wall, time.Since(t))
		m.cpu = append(m.cpu, cpuTime()-cpu)
		rss, err := peakRSSMiB()
		if err != nil {
			return m, err
		}
		m.rss = append(m.rss, rss)
		if err := verify(p, outs); err != nil {
			m.outs = outs
			return m, err
		}
		sim := simMetrics(p, outs)
		if m.sim == nil {
			m.sim, m.outs = sim, outs
		} else if err := sameMetrics(m.sim, sim); err != nil {
			return m, fmt.Errorf("round %d: %w", len(m.wall), err)
		}
		d := m.wall[len(m.wall)-1]
		if time.Since(start)+d > budget {
			return m, nil
		}
	}
}

// span is one timed harness region: a workload or one cell's call into
// experiments.Run or cluster.Run. Times are host nanoseconds since the
// tracer started.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; ids start at 1 and parent 0
// means none.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, StartNs: now})
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNs = now
}
