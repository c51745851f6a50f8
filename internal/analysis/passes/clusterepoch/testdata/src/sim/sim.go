// Package sim is a miniature stand-in for snapbpf/internal/sim.
package sim

// Time is a virtual-clock instant.
type Time int64

// Engine is the discrete-event scheduler.
type Engine struct{}

// Schedule arms fn after a delay.
func (e *Engine) Schedule(d int64, fn func()) {}

// ScheduleAt arms fn at an absolute instant.
func (e *Engine) ScheduleAt(at Time, fn func()) {}
