package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestScheduleAtClampsToNow(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(100, func() {
		e.ScheduleAt(50, func() { at = e.Now() }) // in the past
	})
	e.Run()
	if at != 100 {
		t.Fatalf("past-scheduled event ran at %v, want clamped to 100", at)
	}
}

func TestSemaphoreAccessors(t *testing.T) {
	e := NewEngine()
	s := e.NewSemaphore(2)
	if s.Available() != 2 || s.QueueLen() != 0 {
		t.Fatalf("fresh semaphore: avail=%d queue=%d", s.Available(), s.QueueLen())
	}
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			p.Acquire(s)
			p.Sleep(10)
			s.Release()
		})
	}
	e.RunUntil(5)
	if s.Available() != 0 {
		t.Fatalf("avail = %d mid-run", s.Available())
	}
	if s.QueueLen() != 1 {
		t.Fatalf("queue = %d mid-run", s.QueueLen())
	}
	e.Run()
	if s.Available() != 2 {
		t.Fatalf("avail = %d after drain", s.Available())
	}
}

func TestNegativeSemaphorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().NewSemaphore(-1)
}

func TestProcNameAndEngineAccessors(t *testing.T) {
	e := NewEngine()
	e.Go("worker", func(p *Proc) {
		if p.Name() != "worker" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.Engine() != e {
			t.Error("Engine accessor broken")
		}
		if p.Now() != e.Now() {
			t.Error("Now mismatch")
		}
	})
	e.Run()
}

func TestZeroSleepIsSchedulingPoint(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	e.Run()
	// b1 must interleave between a1 and a2 (zero sleep yields).
	if len(order) != 3 || order[1] != "b1" {
		t.Fatalf("order = %v", order)
	}
}

func TestManyProcsStress(t *testing.T) {
	// Processes, waiters, a semaphore and timer callbacks all mixed:
	// callbacks run on whichever goroutine holds control, so under
	// -race this checks that every hand-off orders the state it shares.
	e := NewEngine()
	const n = 2000
	sem := e.NewSemaphore(8)
	gates := make([]*Waiter, 16)
	for i := range gates {
		gates[i] = e.NewWaiter()
		e.Schedule(Duration(50+7*i), gates[i].Fire)
	}
	done, timers, held, maxHeld := 0, 0, 0, 0
	for i := 0; i < n; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			p.Sleep(Duration(i % 97))
			p.Wait(gates[i%len(gates)])
			p.Acquire(sem)
			held++
			if held > maxHeld {
				maxHeld = held
			}
			e.Schedule(Duration(i%5), func() { timers++ })
			p.Sleep(Duration(i % 3))
			held--
			if i%2 == 0 {
				sem.Release()
			} else {
				// Release from a callback instead of the process.
				e.Schedule(1, sem.Release)
			}
			done++
		})
	}
	e.Run()
	if done != n || timers != n {
		t.Fatalf("done = %d, timers = %d, want %d", done, timers, n)
	}
	if maxHeld != 8 || sem.Available() != 8 {
		t.Fatalf("maxHeld = %d, available = %d, want 8", maxHeld, sem.Available())
	}
}

func TestRunUntilThenResume(t *testing.T) {
	e := NewEngine()
	var marks []Time
	e.Go("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(100 * time.Nanosecond)
			marks = append(marks, p.Now())
		}
	})
	e.RunUntil(150)
	if len(marks) != 1 {
		t.Fatalf("marks after RunUntil = %v", marks)
	}
	e.Run()
	if len(marks) != 3 {
		t.Fatalf("marks after Run = %v", marks)
	}
}

func TestSameTimestampBatchFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	// A burst of events at one instant, some of which schedule further
	// zero-delay events mid-batch: dispatch must stay strictly FIFO.
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() {
			order = append(order, i)
			if i < 3 {
				e.Schedule(0, func() { order = append(order, 100+i) })
			}
		})
	}
	e.Run()
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 100, 101, 102}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEventReuseAcrossRuns(t *testing.T) {
	// Interleaved schedule/run cycles exercise the free list; events
	// must never fire twice or be lost after recycling.
	e := NewEngine()
	fired := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 40; i++ {
			e.Schedule(Duration(i%7), func() { fired++ })
		}
		e.Run()
	}
	if fired != 50*40 {
		t.Fatalf("fired = %d, want %d", fired, 50*40)
	}
}

func TestProcPanicSurfacesFromRun(t *testing.T) {
	cases := []struct {
		name string
		boom func(e *Engine)
	}{
		{"process body", func(e *Engine) {
			e.Go("bad", func(p *Proc) {
				p.Sleep(5)
				panic("boom")
			})
		}},
		// The callback at 5 is dispatched by "bad" while it blocks, so
		// it panics on that process's goroutine.
		{"callback on process goroutine", func(e *Engine) {
			e.Schedule(5, func() { panic("boom") })
			e.Go("bad", func(p *Proc) { p.Sleep(10) })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			e.Go("ok", func(p *Proc) { p.Sleep(100) })
			tc.boom(e)
			defer func() {
				msg, _ := recover().(string)
				for _, want := range []string{`process "bad" panicked`, "boom", "TestProcPanicSurfacesFromRun"} {
					if !strings.Contains(msg, want) {
						t.Fatalf("panic %q lacks %q", msg, want)
					}
				}
			}()
			e.Run()
			t.Fatal("Run returned")
		})
	}
}

func TestRunIsNotReentrant(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() { e.Run() })
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "while the engine is running") {
			t.Fatalf("panic = %q", msg)
		}
	}()
	e.Run()
	t.Fatal("nested Run returned")
}

func TestWakeAllocs(t *testing.T) {
	// Each measured step resumes one blocked process; events come from
	// the free list, so no step may allocate.
	const runs = 100
	t.Run("sleep", func(t *testing.T) {
		e := NewEngine()
		e.Go("sleeper", func(p *Proc) {
			for i := 0; i < 2*runs; i++ {
				p.Sleep(1)
			}
		})
		e.RunUntil(0)
		allocs := testing.AllocsPerRun(runs, func() { e.RunUntil(e.Now() + 1) })
		e.Run()
		if allocs != 0 {
			t.Fatalf("Sleep: %v allocs/op", allocs)
		}
	})
	t.Run("waiter", func(t *testing.T) {
		e := NewEngine()
		ws := make([]*Waiter, 2*runs)
		for i := range ws {
			w := e.NewWaiter()
			ws[i] = w
			e.Go("w", func(p *Proc) { p.Wait(w) })
		}
		e.RunUntil(0) // every process registers and blocks
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			ws[next].Fire()
			next++
			e.RunUntil(e.Now())
		})
		for _, w := range ws[next:] {
			w.Fire()
		}
		e.Run()
		if allocs != 0 {
			t.Fatalf("Waiter wake: %v allocs/op", allocs)
		}
	})
	t.Run("semaphore", func(t *testing.T) {
		// Two processes pass one permit back and forth: every Release
		// wakes the other process, which had queued in Acquire.
		e := NewEngine()
		s := e.NewSemaphore(1)
		for k := 0; k < 2; k++ {
			e.Go("s", func(p *Proc) {
				for i := 0; i < 2*runs; i++ {
					p.Acquire(s)
					p.Sleep(1)
					s.Release()
				}
			})
		}
		e.RunUntil(0)
		allocs := testing.AllocsPerRun(runs, func() { e.RunUntil(e.Now() + 1) })
		e.Run()
		if allocs != 0 {
			t.Fatalf("Semaphore.Release wake: %v allocs/op", allocs)
		}
	})
}

func TestFinishedProcsExit(t *testing.T) {
	// A finished process hands control on and its goroutine returns, so
	// a drained engine leaves no process goroutines behind.
	before := runtime.NumGoroutine()
	e := NewEngine()
	for i := 0; i < 100; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			p.Sleep(Duration(i % 7))
			p.Sleep(1)
		})
	}
	e.Run()
	// The last goroutine may still be returning from its final hand-off.
	for yields := 0; runtime.NumGoroutine() > before; yields++ {
		if yields == 1_000_000 {
			t.Fatalf("goroutines: %d before, %d after Run", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}

func TestProcStartAllocs(t *testing.T) {
	// Go, the first resume and the finish of a process whose body
	// allocates nothing: the Proc, the p.main method value and the 11
	// allocations iter.Pull makes for a coroutine on Go 1.24.
	const want = 13
	e := NewEngine()
	body := func(p *Proc) { p.Sleep(1) }
	allocs := testing.AllocsPerRun(100, func() {
		e.Go("p", body)
		e.Run()
	})
	if allocs > want {
		t.Fatalf("process start: %v allocs, want <= %d", allocs, want)
	}
}

func TestRunResumesOnAnotherGoroutine(t *testing.T) {
	// Processes started under RunUntil on one goroutine are resumed by
	// Run on another: the end time and the observer stream match a run
	// with both calls on the test's goroutine.
	scenario := func(call func(func())) (Time, string) {
		e := NewEngine()
		rec := &streamRecorder{}
		e.AddObserver(rec)
		w := e.NewWaiter()
		s := e.NewSemaphore(1)
		for i := 0; i < 3; i++ {
			i := i
			e.Go(fmt.Sprint("p", i), func(p *Proc) {
				p.Acquire(s)
				p.Sleep(Duration(10 * (i + 1)))
				s.Release()
				p.Wait(w)
				rec.mark(fmt.Sprint("p", i, ":woke"))
			})
		}
		e.Schedule(25, w.Fire)
		call(func() { e.RunUntil(15) })
		var end Time
		call(func() { end = e.Run() })
		return end, strings.Join(rec.calls, " ")
	}
	inline := func(f func()) { f() }
	onGoroutine := func(f func()) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		<-done
	}
	wantEnd, wantCalls := scenario(inline)
	end, calls := scenario(onGoroutine)
	if end != wantEnd || calls != wantCalls {
		t.Fatalf("across goroutines: end %v, stream\n%s\nwant end %v, stream\n%s", end, calls, wantEnd, wantCalls)
	}
	if wantEnd != 60 {
		t.Fatalf("end = %v, want 60", wantEnd)
	}
}
