// Package cluster exercises the clusterepoch rule: epoch guards on
// warm-pool timer callbacks.
package cluster

import "sim"

type warmVM struct {
	epoch int
	idle  bool
}

type warmPool struct {
	idle    []*warmVM
	serving int
}

func (w *warmPool) total() int               { return len(w.idle) + w.serving }
func (w *warmPool) hasIdle() bool            { return len(w.idle) > 0 }
func (w *warmPool) remove(v *warmVM) bool    { return true }
func (w *warmPool) park(v *warmVM)           {}
func (w *warmPool) evictOldestIdle() *warmVM { return nil }

type host struct {
	pool warmPool
}

// guardedBodyOK is the canonical idiom: the epoch comparison
// dominates the mutation in the if body.
func guardedBodyOK(eng *sim.Engine, ho *host, v *warmVM) {
	epoch := v.epoch
	eng.Schedule(10, func() {
		if v.epoch == epoch {
			ho.pool.remove(v)
		}
	})
}

// guardedConjunctOK mirrors the real park() timer: the mutation is a
// later && conjunct of the same condition as the epoch check.
func guardedConjunctOK(eng *sim.Engine, ho *host, v *warmVM) {
	epoch := v.epoch
	eng.Schedule(10, func() {
		if v.idle && v.epoch == epoch && ho.pool.remove(v) {
			_ = v
		}
	})
}

// unguardedMutation evicts without checking the epoch: a stale timer
// would tear down a sandbox that has since been taken.
func unguardedMutation(eng *sim.Engine, ho *host, v *warmVM) {
	eng.Schedule(10, func() {
		ho.pool.remove(v) // want `warm-pool mutation ho\.pool\.remove in a scheduled timer callback is not epoch-guarded`
	})
}

// wrongOrderConjunct runs the mutation before the epoch comparison;
// short-circuit order means the pool is touched on stale timers too.
func wrongOrderConjunct(eng *sim.Engine, ho *host, v *warmVM) {
	epoch := v.epoch
	eng.Schedule(10, func() {
		if ho.pool.remove(v) && v.epoch == epoch { // want `warm-pool mutation ho\.pool\.remove in a scheduled timer callback is not epoch-guarded`
			_ = v
		}
	})
}

// unguardedFieldWrite mutates parked-sandbox state directly.
func unguardedFieldWrite(eng *sim.Engine, v *warmVM) {
	eng.Schedule(10, func() {
		v.idle = false // want `warm-pool mutation v\.idle in a scheduled timer callback is not epoch-guarded`
	})
}

// unguardedIncDec bumps the epoch itself without a guard.
func unguardedIncDec(eng *sim.Engine, v *warmVM) {
	eng.Schedule(10, func() {
		v.epoch++ // want `warm-pool mutation v\.epoch in a scheduled timer callback is not epoch-guarded`
	})
}

// guardedFieldWriteOK writes sandbox state under the epoch check.
func guardedFieldWriteOK(eng *sim.Engine, v *warmVM) {
	epoch := v.epoch
	eng.ScheduleAt(sim.Time(10), func() {
		if v.epoch == epoch {
			v.idle = false
		}
	})
}

// readsOK: read-only pool methods need no guard.
func readsOK(eng *sim.Engine, ho *host) {
	eng.Schedule(10, func() {
		_ = ho.pool.total()
		_ = ho.pool.hasIdle()
	})
}

// outsideScheduleOK: mutations outside Schedule closures are the
// engine-serialized fast path; the epoch contract binds timers only.
func outsideScheduleOK(ho *host, v *warmVM) {
	ho.pool.park(v)
	v.epoch++
}

// suppressed carries a reasoned directive (the early-return pattern).
func suppressed(eng *sim.Engine, ho *host, v *warmVM) {
	epoch := v.epoch
	eng.Schedule(10, func() {
		if v.epoch != epoch {
			return
		}
		//lint:allow clusterepoch early return above re-checks the epoch
		ho.pool.remove(v)
	})
}

//lint:allow clusterepoch this directive covers no diagnostic // want `unused //lint:allow clusterepoch directive`
func clean() {}
