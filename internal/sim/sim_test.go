package sim

import (
	"fmt"
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30*time.Nanosecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Nanosecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Nanosecond, func() { got = append(got, 2) })
	end := e.Run()
	if end != Time(30) {
		t.Fatalf("end time = %v, want 30ns", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestScheduleFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*time.Nanosecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("FIFO violated: got %v", got)
		}
	}
}

func TestScheduleNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(-time.Second, func() { ran = true })
	if end := e.Run(); end != 0 {
		t.Fatalf("end = %v, want 0", end)
	}
	if !ran {
		t.Fatal("event did not run")
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Schedule(10, func() {
		times = append(times, e.Now())
		e.Schedule(5, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times = %v, want [10 15]", times)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var marks []Time
	e.Go("p", func(p *Proc) {
		marks = append(marks, p.Now())
		p.Sleep(100)
		marks = append(marks, p.Now())
		p.Sleep(50)
		marks = append(marks, p.Now())
	})
	e.Run()
	want := []Time{0, 100, 150}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v, want %v", marks, want)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(10)
		order = append(order, "a10")
		p.Sleep(20)
		order = append(order, "a30")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(15)
		order = append(order, "b15")
	})
	e.Run()
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestWaiterFireBeforeWait(t *testing.T) {
	e := NewEngine()
	w := e.NewWaiter()
	e.Schedule(5, func() { w.Fire() })
	var at Time
	e.GoAfter(20, "p", func(p *Proc) {
		p.Wait(w) // already fired: no yield
		at = p.Now()
	})
	e.Run()
	if at != 20 {
		t.Fatalf("resumed at %v, want 20", at)
	}
	if !w.Fired() || w.FiredAt() != 5 {
		t.Fatalf("FiredAt = %v, want 5", w.FiredAt())
	}
}

func TestWaiterBlocksUntilFire(t *testing.T) {
	e := NewEngine()
	w := e.NewWaiter()
	var at Time
	e.Go("p", func(p *Proc) {
		p.Wait(w)
		at = p.Now()
	})
	e.Schedule(77, func() { w.Fire() })
	e.Run()
	if at != 77 {
		t.Fatalf("resumed at %v, want 77", at)
	}
}

func TestWaiterMultipleWaiters(t *testing.T) {
	e := NewEngine()
	w := e.NewWaiter()
	woke := 0
	for i := 0; i < 5; i++ {
		e.Go("p", func(p *Proc) {
			p.Wait(w)
			woke++
		})
	}
	e.Schedule(10, func() { w.Fire() })
	e.Run()
	if woke != 5 {
		t.Fatalf("woke = %d, want 5", woke)
	}
}

// TestWaiterCallbacksInOrder: processes and OnFire callbacks on one
// Waiter resume in registration order at the instant it fires. OnFire
// on a fired waiter runs inline, before it returns, and a callback
// registered from a callback runs when its own waiter fires.
func TestWaiterCallbacksInOrder(t *testing.T) {
	e := NewEngine()
	w, w2 := e.NewWaiter(), e.NewWaiter()
	var got []string
	note := func(s string) { got = append(got, fmt.Sprintf("%s@%d", s, e.Now())) }
	// Registration order at t=0 is the dispatch order of these events.
	e.Go("p1", func(p *Proc) {
		p.Wait(w)
		note("p1")
	})
	e.Schedule(0, func() {
		w.OnFire(func() {
			note("c1")
			w2.OnFire(func() { note("c1>w2") })
		})
	})
	e.Go("p2", func(p *Proc) {
		p.Wait(w)
		note("p2")
	})
	e.Schedule(0, func() {
		w.OnFire(func() {
			w.OnFire(func() { note("c2>w") }) // fired: inline
			note("c2")
		})
	})
	e.Schedule(10, w.Fire)
	e.Schedule(15, w2.Fire)
	e.Schedule(20, func() {
		w.OnFire(func() { note("late") })
		note("after late")
	})
	e.Run()
	want := []string{"p1@10", "c1@10", "p2@10", "c2>w@10", "c2@10", "c1>w2@15", "late@20", "after late@20"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestWaiterDoubleFire(t *testing.T) {
	e := NewEngine()
	w := e.NewWaiter()
	e.Schedule(1, func() { w.Fire() })
	e.Schedule(2, func() { w.Fire() })
	e.Run()
	if w.FiredAt() != 1 {
		t.Fatalf("FiredAt = %v, want 1 (first fire wins)", w.FiredAt())
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := NewEngine()
	s := e.NewSemaphore(2)
	active, maxActive := 0, 0
	for i := 0; i < 6; i++ {
		e.Go("w", func(p *Proc) {
			p.Acquire(s)
			active++
			if active > maxActive {
				maxActive = active
			}
			p.Sleep(100)
			active--
			s.Release()
		})
	}
	end := e.Run()
	if maxActive != 2 {
		t.Fatalf("maxActive = %d, want 2", maxActive)
	}
	// 6 jobs of 100ns with parallelism 2 => 300ns.
	if end != 300 {
		t.Fatalf("end = %v, want 300", end)
	}
}

func TestSemaphoreFIFO(t *testing.T) {
	e := NewEngine()
	s := e.NewSemaphore(1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			p.Acquire(s)
			order = append(order, i)
			p.Sleep(10)
			s.Release()
		})
	}
	e.Run()
	for i := 0; i < 4; i++ {
		if order[i] != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(10, func() { ran++ })
	e.Schedule(20, func() { ran++ })
	e.Schedule(30, func() { ran++ })
	e.RunUntil(20)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if e.Now() != 20 {
		t.Fatalf("now = %v, want 20", e.Now())
	}
	e.Run()
	if ran != 3 {
		t.Fatalf("ran = %d, want 3 after Run", ran)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e := NewEngine()
	w := e.NewWaiter()
	e.Go("stuck", func(p *Proc) { p.Wait(w) })
	e.Run()
}

func TestGoAfter(t *testing.T) {
	e := NewEngine()
	var start Time
	e.GoAfter(42, "late", func(p *Proc) { start = p.Now() })
	e.Run()
	if start != 42 {
		t.Fatalf("start = %v, want 42", start)
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(1500).String(); got != "1.5µs" {
		t.Fatalf("String = %q", got)
	}
}

func TestProcSpawnsProc(t *testing.T) {
	e := NewEngine()
	var childAt Time
	e.Go("parent", func(p *Proc) {
		p.Sleep(10)
		p.Engine().Go("child", func(c *Proc) {
			c.Sleep(5)
			childAt = c.Now()
		})
		p.Sleep(100)
	})
	e.Run()
	if childAt != 15 {
		t.Fatalf("childAt = %v, want 15", childAt)
	}
}

// TestProcIDsInStartOrder pins Proc.ID: processes are numbered from 0
// in the order Go and GoAfter start them, per engine, whatever order
// they run in, including a process started from inside another.
func TestProcIDsInStartOrder(t *testing.T) {
	e := NewEngine()
	seen := map[string]int{}
	body := func(p *Proc) { seen[p.Name()] = p.ID() }
	late := e.GoAfter(10, "late", body)
	parent := e.Go("parent", func(p *Proc) {
		body(p)
		p.Sleep(1)
		p.Engine().Go("child", body)
	})
	sibling := e.Go("sibling", body)
	e.Run()
	for _, p := range []*Proc{late, parent, sibling} {
		if p.ID() != seen[p.Name()] {
			t.Errorf("%s: ID %d after start, %d inside", p.Name(), p.ID(), seen[p.Name()])
		}
	}
	want := map[string]int{"late": 0, "parent": 1, "sibling": 2, "child": 3}
	for name, id := range want {
		if got, ok := seen[name]; !ok || got != id {
			t.Errorf("%s: ID %d (ran %v), want %d", name, got, ok, id)
		}
	}
	if id := NewEngine().Go("first", body).ID(); id != 0 {
		t.Errorf("a new engine's first process has ID %d, want 0", id)
	}
}
