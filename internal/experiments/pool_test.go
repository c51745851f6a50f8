package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"snapbpf/internal/prefetch"
	"snapbpf/internal/sim"
	"snapbpf/internal/vmm"
	"snapbpf/internal/workload"
)

func TestRunCellsOrderPreserving(t *testing.T) {
	fn := tinyFn()
	schemes := []Scheme{SchemeLinuxRA, SchemeREAP, SchemeSnapBPF}
	var cells []Cell
	for _, s := range schemes {
		for _, n := range []int{1, 2} {
			cells = append(cells, Cell{Fn: fn, Scheme: s, Cfg: Config{N: n}})
		}
	}
	rs, err := RunCells(Options{Parallel: 4}, cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(cells) {
		t.Fatalf("got %d results for %d cells", len(rs), len(cells))
	}
	for i, c := range cells {
		if rs[i] == nil {
			t.Fatalf("cell %d: nil result", i)
		}
		if rs[i].Scheme != c.Scheme.Name || rs[i].N != c.Cfg.N {
			t.Fatalf("cell %d: result (%s, N=%d) does not match cell (%s, N=%d)",
				i, rs[i].Scheme, rs[i].N, c.Scheme.Name, c.Cfg.N)
		}
	}
}

func TestRunJobsFirstErrorWins(t *testing.T) {
	// Job 5 fails instantly; job 2 fails after the others are done.
	// The reported error must still be job 2's — the lowest index —
	// regardless of completion order.
	errLow := errors.New("low")
	errHigh := errors.New("high")
	var mu sync.Mutex
	started := 0
	err := Options{Parallel: 4}.runJobs(8, func(i int) error {
		mu.Lock()
		started++
		mu.Unlock()
		switch i {
		case 2:
			time.Sleep(20 * time.Millisecond)
			return errLow
		case 5:
			return errHigh
		}
		return nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("got %v, want the lowest-indexed error %v", err, errLow)
	}
	if started != 8 {
		t.Fatalf("ran %d jobs, want all 8", started)
	}
}

func TestRunJobsSerialStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	ran := 0
	err := Options{Parallel: 1}.runJobs(5, func(i int) error {
		ran++
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if ran != 3 {
		t.Fatalf("serial mode ran %d jobs after a failure at index 2, want 3", ran)
	}
}

func TestRunJobsPanicRecovered(t *testing.T) {
	for _, par := range []int{1, 4} {
		err := Options{Parallel: par}.runJobs(4, func(i int) error {
			if i == 1 {
				panic("cell exploded")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "cell exploded") {
			t.Fatalf("parallel=%d: panic not converted to error: %v", par, err)
		}
		if !strings.Contains(err.Error(), "job 1") {
			t.Fatalf("parallel=%d: error does not identify the job: %v", par, err)
		}
	}
}

// panickyPrepare is Linux-RA with a PrepareVM that panics inside the
// sandbox's simulated process.
type panickyPrepare struct{ prefetch.Prefetcher }

func (panickyPrepare) PrepareVM(*sim.Proc, *prefetch.Env, *vmm.MicroVM) error {
	panic("prepare exploded")
}

// TestRunCellsProcPanicIsError: a panic inside a scheme's process body
// surfaces from the engine on the cell's goroutine, where the pool
// turns it into that cell's error; the other cells still complete.
func TestRunCellsProcPanicIsError(t *testing.T) {
	bad := Scheme{Name: "Panicky", New: func() prefetch.Prefetcher { return panickyPrepare{prefetch.NewLinuxRA()} }}
	cells := []Cell{
		{Fn: tinyFn(), Scheme: SchemeLinuxRA, Cfg: Config{N: 2}},
		{Fn: tinyFn(), Scheme: bad, Cfg: Config{N: 2}},
	}
	for _, par := range []int{1, 2} {
		rs, err := RunCells(Options{Parallel: par}, cells)
		if err == nil {
			t.Fatalf("parallel=%d: no error from a panicking PrepareVM", par)
		}
		for _, want := range []string{"job 1 panicked", `process "vm0" panicked`, "prepare exploded"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("parallel=%d: error lacks %q: %v", par, want, err)
			}
		}
		if rs[0] == nil || rs[1] != nil {
			t.Fatalf("parallel=%d: results %v, want only cell 0", par, rs)
		}
	}
}

// TestFig3bSerialParallelIdentical is the determinism contract: the
// CSV (and the -v progress stream) of a figure must be byte-identical
// whether its cells ran serially or across workers.
func TestFig3bSerialParallelIdentical(t *testing.T) {
	run := func(par int) (string, []string) {
		var lines []string
		o := Options{
			Functions: []workload.Function{tinyFn()},
			Parallel:  par,
			Progress:  func(msg string) { lines = append(lines, msg) },
		}
		tbl, err := experimentByID(t, "fig3b")(o)
		if err != nil {
			t.Fatal(err)
		}
		return tbl.CSV(), lines
	}
	serialCSV, serialLines := run(1)
	parallelCSV, parallelLines := run(4)
	if serialCSV != parallelCSV {
		t.Fatalf("fig3b CSV differs between serial and parallel runs:\nserial:\n%s\nparallel:\n%s",
			serialCSV, parallelCSV)
	}
	if fmt.Sprint(serialLines) != fmt.Sprint(parallelLines) {
		t.Fatalf("progress lines differ between serial and parallel runs:\n%v\n%v",
			serialLines, parallelLines)
	}
}
