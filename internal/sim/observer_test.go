package sim

import (
	"fmt"
	"strings"
	"testing"
)

// streamRecorder logs every Observer call, interleaved with marks the
// scenario writes, so a test can pin the exact call sequence.
type streamRecorder struct{ calls []string }

func (r *streamRecorder) EventScheduled(at Time) {
	r.calls = append(r.calls, fmt.Sprintf("sched@%d", int64(at)))
}

func (r *streamRecorder) ClockAdvanced(now Time) {
	r.calls = append(r.calls, fmt.Sprintf("clock@%d", int64(now)))
}

func (r *streamRecorder) mark(s string) { r.calls = append(r.calls, s) }

// TestObserverStreamPinned pins the exact EventScheduled/ClockAdvanced
// sequence of a scenario that exercises every dispatch shape: two
// processes, a zero Sleep, a zero-delay Schedule issued mid-batch, a
// Semaphore hand-off, a callback firing a Waiter, and RunUntil followed
// by Run. One ClockAdvanced per batch; an event scheduled at the
// current instant during a batch starts a batch of its own.
func TestObserverStreamPinned(t *testing.T) {
	e := NewEngine()
	rec := &streamRecorder{}
	e.SetObserver(rec)
	w := e.NewWaiter()
	s := e.NewSemaphore(1)
	e.Go("a", func(p *Proc) {
		rec.mark("a:start")
		p.Acquire(s)
		p.Sleep(0)
		rec.mark("a:slept0")
		p.Sleep(10)
		s.Release() // hands the permit to b
		rec.mark("a:released")
		p.Wait(w)
		rec.mark("a:woke")
	})
	e.Go("b", func(p *Proc) {
		rec.mark("b:start")
		p.Acquire(s)
		rec.mark("b:acquired")
		p.Sleep(5)
		s.Release()
		rec.mark("b:done")
	})
	e.Schedule(10, func() {
		rec.mark("cb@10")
		e.Schedule(0, func() { rec.mark("cb@10+0") })
	})
	e.Schedule(20, func() {
		rec.mark("fire")
		w.Fire()
	})
	e.RunUntil(12)
	rec.mark("until")
	e.Run()
	rec.mark("end")

	want := []string{
		"sched@0", "sched@0", "sched@10", "sched@20",
		"clock@0", "a:start", "sched@0", "b:start",
		"clock@0", "a:slept0", "sched@10",
		"clock@10", "cb@10", "sched@10", "sched@10", "a:released",
		"clock@10", "cb@10+0", "b:acquired", "sched@15",
		"until",
		"clock@15", "b:done",
		"clock@20", "fire", "sched@20",
		"clock@20", "a:woke",
		"end",
	}
	if got := strings.Join(rec.calls, " "); got != strings.Join(want, " ") {
		t.Fatalf("observer stream:\n got %s\nwant %s", got, strings.Join(want, " "))
	}
}
