//go:build go1.23

// Package sim implements a deterministic discrete-event simulation
// kernel with coroutine-backed sequential processes.
//
// The engine advances a virtual clock (nanosecond resolution) through a
// priority queue of events. Simulated activities — a VMM restoring a
// snapshot, a function faulting on guest memory, an SSD completing a
// read — are modelled either as plain scheduled callbacks or as
// Processes: iter.Pull coroutines that run one at a time and can block
// on virtual time (Sleep) or on conditions (Waiter, Semaphore). A
// callback that only waits for one Waiter needs no process:
// Waiter.OnFire runs it when the waiter fires, at the same point a
// waiting process would resume. One process or callback runs at a
// time, so simulations are fully deterministic: events at equal
// timestamps fire in scheduling order.
//
// Run and RunUntil resume processes in a loop on the caller's goroutine. A
// process that blocks runs the dispatch loop itself: callbacks execute
// inline until an event resumes a process; if that is the process itself
// it carries on, otherwise it yields to Run, which resumes that process,
// if any. Run is therefore not reentrant: a callback or process that calls
// Run panics. A panic in a process, or in a callback it dispatches, is
// recovered in its coroutine and re-raised from Run, naming the process
// and carrying the original stack.
package sim

import (
	"fmt"
	"iter"
	"math"
	"runtime/debug"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts
// directly from time.Duration.
type Duration = time.Duration

// String formats the time as a duration since simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among equal timestamps
	fn  func() // callback; nil for a process resume
	p   *Proc  // process to resume when fn is nil
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; create engines with NewEngine.
type Engine struct {
	now   Time
	queue []event // binary min-heap ordered by (at, seq)
	seq   uint64
	// batchSeq delimits the batch in progress: events at now with
	// seq <= batchSeq were scheduled before the batch began and run
	// without another ClockAdvanced. It lives on the engine, not on a
	// stack, so a blocking process can continue a batch.
	batchSeq uint64
	until    Time // dispatch horizon of the Run/RunUntil in progress
	running  bool
	nprocs   int // live (not yet finished) processes
	started  int // processes started so far; the next one's ID
	obs      []Observer
	handoff  *Proc  // the process Run resumes next, left by one that yields
	failure  string // a panic recovered in a process, re-raised by Run
}

// Observer receives engine scheduling events for the correctness
// harness (internal/check) and the observability layer (internal/obs).
// Observers must not mutate simulation state.
type Observer interface {
	// EventScheduled fires for every Schedule/ScheduleAt call with the
	// clamped target time (always >= Now at call time).
	EventScheduled(at Time)
	// ClockAdvanced fires each time dispatch moves the clock to a new
	// timestamp, before the events at that instant run.
	ClockAdvanced(now Time)
}

// AddObserver attaches o after the engine's other observers.
func (e *Engine) AddObserver(o Observer) { e.obs = AppendObserver(e.obs, o) }

// AppendObserver is the one attach rule of every layer: each keeps its
// observers in a list, appends with this helper, and runs every hook
// through the list in attach order, so any number of observers attach
// side by side without knowing about each other. It panics on a nil o.
func AppendObserver[T any](list []T, o T) []T {
	if any(o) == nil {
		panic(fmt.Sprintf("sim: nil observer added to %T", list))
	}
	return append(list, o)
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// eventLess orders the heap by timestamp, FIFO among equal timestamps.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev into the heap.
func (e *Engine) push(ev event) {
	q := append(e.queue, ev)
	// Sift up.
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&q[i], &q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	e.queue = q
}

// pop removes and returns the earliest event.
func (e *Engine) pop() event {
	q := e.queue
	ev := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // drop the callback and process references
	q = q[:n]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && eventLess(&q[l], &q[smallest]) {
			smallest = l
		}
		if r < n && eventLess(&q[r], &q[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	e.queue = q
	return ev
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule runs fn at the current time plus delay. A negative delay is
// treated as zero. Scheduling is FIFO among events with equal times.
func (e *Engine) Schedule(delay Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.schedule(e.now.Add(delay), fn, nil)
}

// ScheduleAt runs fn at absolute time at (clamped to now).
func (e *Engine) ScheduleAt(at Time, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.schedule(at, fn, nil)
}

// schedule queues a callback fn, or a resume of p when fn is nil, at
// at >= now.
func (e *Engine) schedule(at Time, fn func(), p *Proc) {
	e.seq++
	for _, o := range e.obs {
		o.EventScheduled(at)
	}
	e.push(event{at: at, seq: e.seq, fn: fn, p: p})
}

// next pops the next event due at or before the horizon, or reports
// false when none is. An event outside the batch in progress opens a
// new batch: the clock moves to its timestamp once, and every event
// queued by then at that instant joins the batch, while events
// scheduled at the same instant during the batch carry higher sequence
// numbers and form the next one.
func (e *Engine) next() (event, bool) {
	if len(e.queue) == 0 || e.queue[0].at > e.until {
		return event{}, false
	}
	head := &e.queue[0]
	if head.at != e.now || head.seq > e.batchSeq {
		e.now, e.batchSeq = head.at, e.seq
		for _, o := range e.obs {
			o.ClockAdvanced(e.now)
		}
	}
	return e.pop(), true
}

// dispatch runs due callbacks inline and returns the first process to
// resume, or nil when no event is due.
func (e *Engine) dispatch() *Proc {
	for {
		ev, ok := e.next()
		if !ok {
			return nil
		}
		if ev.fn == nil {
			return ev.p
		}
		ev.fn()
	}
}

// Run processes events until the queue is empty. It returns the final
// virtual time. Run panics if a process is still blocked when the
// queue drains (a deadlock in the simulated system), if a process
// panicked, or if it is called while the engine is already running.
func (e *Engine) Run() Time {
	e.run(math.MaxInt64)
	if e.nprocs > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) blocked with no pending events at t=%v", e.nprocs, e.now))
	}
	return e.now
}

// RunUntil processes events with timestamps <= deadline and then stops,
// setting the clock to deadline. Blocked processes are left blocked.
func (e *Engine) RunUntil(deadline Time) Time {
	e.run(deadline)
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// run dispatches events due at or before until, resuming each process
// that a dispatch returns until one yields with nothing left to resume.
func (e *Engine) run(until Time) {
	if e.running {
		panic("sim: Run called while the engine is running")
	}
	e.running, e.until = true, until
	for p := e.dispatch(); p != nil; p, e.handoff = e.handoff, nil {
		p.resume()
	}
	e.running = false
	if msg := e.failure; msg != "" {
		e.failure = ""
		panic(msg)
	}
}

// Proc is a sequential simulated process backed by a coroutine. All
// Proc methods must be called from the process itself (inside the
// function passed to Go).
type Proc struct {
	eng   *Engine
	name  string
	id    int
	fn    func(p *Proc)           // body, run by the coroutine
	next  func() (struct{}, bool) // resumes the coroutine; nil until the first dispatch
	yield func(struct{}) bool     // suspends the coroutine back to next's caller
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// ID returns the process's start index on its engine: processes are
// numbered from 0 in the order Go and GoAfter started them, so
// per-process observer state can live in a slice indexed by ID.
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Go starts fn as a simulated process at the current virtual time.
// The process runs when the engine dispatches its start event.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	return e.GoAfter(0, name, fn)
}

// GoAfter starts fn as a simulated process after delay.
func (e *Engine) GoAfter(delay Duration, name string, fn func(p *Proc)) *Proc {
	if delay < 0 {
		delay = 0
	}
	p := &Proc{eng: e, name: name, id: e.started, fn: fn}
	e.started++
	e.nprocs++
	e.schedule(e.now.Add(delay), nil, p)
	return p
}

// resume runs p until it blocks or finishes: its first dispatch
// creates the coroutine, so a process that never starts holds none.
func (p *Proc) resume() {
	if p.next == nil {
		p.next, _ = iter.Pull(p.main)
	}
	p.next()
}

// main is the body of a process coroutine. When fn returns, the
// finished process dispatches on and leaves Run the next process to
// resume. A panic is recorded for Run to re-raise.
func (p *Proc) main(yield func(struct{}) bool) {
	e := p.eng
	defer func() {
		if r := recover(); r != nil {
			e.failure = fmt.Sprintf("sim: process %q panicked: %v\n\n%s", p.name, r, debug.Stack())
		}
	}()
	p.yield = yield
	p.fn(p)
	e.nprocs--
	e.handoff = e.dispatch()
}

// block suspends the process until its resume event is dispatched.
// Meanwhile the process runs the dispatch loop: if its own resume is
// next it returns at once, otherwise it leaves the resumed process (or
// none) to Run and yields until Run resumes it.
func (p *Proc) block() {
	e := p.eng
	q := e.dispatch()
	if q == p {
		return
	}
	e.handoff = q
	p.yield(struct{}{})
}

// Sleep advances the process by d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		// Even a zero sleep is a scheduling point (FIFO fairness).
		d = 0
	}
	p.eng.schedule(p.eng.now.Add(d), nil, p)
	p.block()
}

// Waiter is a single-use completion signal that processes can block on
// and callbacks can fire. Fire may be called before or after Wait;
// multiple processes may wait on the same Waiter, and OnFire chains
// callbacks to it without a process.
type Waiter struct {
	eng     *Engine
	fired   bool
	waiters []waitEntry // in registration order
	at      Time        // time of Fire, valid once fired
}

// waitEntry is one registration on a Waiter: a callback, or a resume
// of p when fn is nil — the two shapes schedule takes.
type waitEntry struct {
	fn func()
	p  *Proc
}

// NewWaiter returns an unfired Waiter.
func (e *Engine) NewWaiter() *Waiter { return &Waiter{eng: e} }

// Fired reports whether Fire has been called.
func (w *Waiter) Fired() bool { return w.fired }

// FiredAt returns the virtual time at which the waiter fired.
// It is only meaningful once Fired reports true.
func (w *Waiter) FiredAt() Time { return w.at }

// Fire completes the waiter, waking all current and future waiters.
// Firing twice is a no-op.
func (w *Waiter) Fire() {
	if w.fired {
		return
	}
	w.fired = true
	w.at = w.eng.now
	ws := w.waiters
	w.waiters = nil
	for _, we := range ws {
		w.eng.schedule(w.eng.now, we.fn, we.p)
	}
}

// OnFire registers fn to run as an event at the instant the waiter
// fires, in registration order with the processes waiting on it. If it
// already fired, fn runs at once, as Wait returns at once.
func (w *Waiter) OnFire(fn func()) {
	if w.fired {
		fn()
		return
	}
	w.waiters = append(w.waiters, waitEntry{fn: fn})
}

// Wait blocks the process until the waiter fires. If it already fired,
// Wait returns immediately without yielding.
func (p *Proc) Wait(w *Waiter) {
	if w.fired {
		return
	}
	w.waiters = append(w.waiters, waitEntry{p: p})
	p.block()
}

// WaitAll blocks until every waiter in ws has fired.
func (p *Proc) WaitAll(ws ...*Waiter) {
	for _, w := range ws {
		p.Wait(w)
	}
}

// Semaphore is a counting semaphore over virtual time, used to model
// bounded resources such as device queue slots.
type Semaphore struct {
	eng   *Engine
	avail int
	queue []*Proc
}

// NewSemaphore returns a semaphore with n initial permits.
func (e *Engine) NewSemaphore(n int) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore capacity")
	}
	return &Semaphore{eng: e, avail: n}
}

// Acquire takes one permit, blocking the process until one is free.
// Wakeups are FIFO.
func (p *Proc) Acquire(s *Semaphore) {
	if s.avail > 0 {
		s.avail--
		return
	}
	s.queue = append(s.queue, p)
	p.block()
}

// Release returns one permit, waking the oldest blocked process if any.
// It may be called from any context (process or callback).
func (s *Semaphore) Release() {
	if len(s.queue) > 0 {
		p := s.queue[0]
		// Shift down rather than reslice, so the queue's buffer is
		// reused and a steady-state hand-off allocates nothing.
		n := copy(s.queue, s.queue[1:])
		s.queue[n] = nil
		s.queue = s.queue[:n]
		s.eng.schedule(s.eng.now, nil, p)
		return
	}
	s.avail++
}

// Available returns the number of free permits.
func (s *Semaphore) Available() int { return s.avail }

// QueueLen returns the number of processes blocked in Acquire.
func (s *Semaphore) QueueLen() int { return len(s.queue) }
