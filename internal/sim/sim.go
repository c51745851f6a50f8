// Package sim implements a deterministic discrete-event simulation
// kernel with goroutine-backed sequential processes.
//
// The engine advances a virtual clock (nanosecond resolution) through a
// priority queue of events. Simulated activities — a VMM restoring a
// snapshot, a function faulting on guest memory, an SSD completing a
// read — are modelled either as plain scheduled callbacks or as
// Processes: goroutines that run one at a time and can block on virtual
// time (Sleep) or on conditions (Waiter, Semaphore). A callback that
// only waits for one Waiter needs no process: Waiter.OnFire runs it
// when the waiter fires, at the same point a waiting process would
// resume. Exactly one goroutine holds control at any instant, so
// simulations are fully deterministic: events at equal timestamps fire
// in scheduling order.
//
// Control passes from goroutine to goroutine without a central
// scheduler goroutine. Whichever goroutine holds control — the caller
// of Run/RunUntil, or a process that just blocked or finished — runs
// the dispatch loop itself: callbacks execute inline, and the first
// event that resumes a process ends the loop. A process whose own
// resume comes next carries on with no goroutine switch; otherwise
// control moves to the resumed process in one channel send, or back
// to Run when nothing more is due. Run is therefore not reentrant: a
// callback or process that calls Run panics. A panic in a process, or
// in a callback dispatched on a process's goroutine, is recovered
// there and re-raised from Run on the caller's goroutine, naming the
// process and carrying the original stack.
package sim

import (
	"fmt"
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
	queue []*event // binary min-heap ordered by (at, seq)
	free  []*event // recycled events, so steady-state dispatch allocates nothing
	seq   uint64
	// batchSeq delimits the batch in progress: events at now with
	// seq <= batchSeq were scheduled before the batch began and run
	// without another ClockAdvanced. It lives on the engine, not on a
	// stack, so whichever goroutine holds control can continue a batch.
	batchSeq uint64
	until    Time // dispatch horizon of the Run/RunUntil in progress
	running  bool
	nprocs   int // live (not yet finished) processes
	obs      []Observer

	// home carries control back to the goroutine in Run/RunUntil when
	// a process finds no event due before the horizon.
	home    chan struct{}
	failure string // a panic recovered on a process goroutine, re-raised by Run
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
func NewEngine() *Engine {
	return &Engine{home: make(chan struct{})}
}

// eventLess orders the heap by timestamp, FIFO among equal timestamps.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev into the heap.
func (e *Engine) push(ev *event) {
	q := append(e.queue, ev)
	// Sift up.
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	e.queue = q
}

// pop removes and returns the earliest event. The caller recycles it
// via recycle once the callback has run.
func (e *Engine) pop() *event {
	q := e.queue
	ev := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && eventLess(q[l], q[smallest]) {
			smallest = l
		}
		if r < n && eventLess(q[r], q[smallest]) {
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

// alloc returns a zeroed event, reusing a recycled one when available.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// maxFree bounds the free list: steady-state simulations interleave
// scheduling and dispatch, so a small pool captures nearly all reuse,
// while a burst of one-shot events (everything scheduled up front)
// must not leave a queue-sized pool behind.
const maxFree = 1024

// recycle returns a dispatched event to the free list.
func (e *Engine) recycle(ev *event) {
	ev.fn, ev.p = nil, nil
	if len(e.free) < maxFree {
		e.free = append(e.free, ev)
	}
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
	ev := e.alloc()
	ev.at, ev.seq, ev.fn, ev.p = at, e.seq, fn, p
	for _, o := range e.obs {
		o.EventScheduled(at)
	}
	e.push(ev)
}

// next pops the next event due at or before the horizon, or returns
// nil when none is. An event outside the batch in progress opens a new
// batch: the clock moves to its timestamp once, and every event queued
// by then at that instant joins the batch, while events scheduled at
// the same instant during the batch carry higher sequence numbers and
// form the next one.
func (e *Engine) next() *event {
	if len(e.queue) == 0 {
		return nil
	}
	head := e.queue[0]
	if head.at > e.until {
		return nil
	}
	if head.at != e.now || head.seq > e.batchSeq {
		e.now, e.batchSeq = head.at, e.seq
		for _, o := range e.obs {
			o.ClockAdvanced(e.now)
		}
	}
	return e.pop()
}

// dispatch runs due callbacks on the calling goroutine and returns the
// first process to resume, or nil when no event is due.
func (e *Engine) dispatch() *Proc {
	for {
		ev := e.next()
		if ev == nil {
			return nil
		}
		fn, p := ev.fn, ev.p
		e.recycle(ev)
		if fn == nil {
			return p
		}
		fn()
	}
}

// handOff passes control from a process goroutine to p, or back to
// Run when p is nil.
func (e *Engine) handOff(p *Proc) {
	if p == nil {
		e.home <- struct{}{}
		return
	}
	p.resume()
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

// run dispatches events due at or before until. Control may travel
// through any number of processes before one of them sends it home.
func (e *Engine) run(until Time) {
	if e.running {
		panic("sim: Run called while the engine is running")
	}
	e.running, e.until = true, until
	if p := e.dispatch(); p != nil {
		p.resume()
		<-e.home
	}
	e.running = false
	if msg := e.failure; msg != "" {
		e.failure = ""
		panic(msg)
	}
}

// Proc is a sequential simulated process backed by a goroutine. All
// Proc methods must be called from the process's own goroutine (inside
// the function passed to Go).
type Proc struct {
	eng  *Engine
	name string
	fn   func(p *Proc) // body, until the first dispatch starts the goroutine
	wake chan struct{} // control arrives here while the process is blocked
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

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
	p := &Proc{eng: e, name: name, fn: fn, wake: make(chan struct{})}
	e.nprocs++
	e.schedule(e.now.Add(delay), nil, p)
	return p
}

// resume gives control to p: its first dispatch starts the goroutine,
// later ones wake it inside block.
func (p *Proc) resume() {
	if fn := p.fn; fn != nil {
		p.fn = nil
		go p.main(fn)
		return
	}
	p.wake <- struct{}{}
}

// main is the body of a process goroutine. When fn returns, the
// finished process keeps dispatching until it hands control on. A
// panic is recorded for Run to re-raise, and control goes home.
func (p *Proc) main(fn func(p *Proc)) {
	e := p.eng
	defer func() {
		if r := recover(); r != nil {
			e.failure = fmt.Sprintf("sim: process %q panicked: %v\n\n%s", p.name, r, debug.Stack())
			e.home <- struct{}{}
		}
	}()
	fn(p)
	e.nprocs--
	e.handOff(e.dispatch())
}

// block suspends the process until its resume event is dispatched.
// Meanwhile the process's goroutine runs the dispatch loop: if its own
// resume is next it returns at once, otherwise it hands control on and
// waits for it to come back.
func (p *Proc) block() {
	e := p.eng
	q := e.dispatch()
	if q == p {
		return
	}
	e.handOff(q)
	<-p.wake
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
