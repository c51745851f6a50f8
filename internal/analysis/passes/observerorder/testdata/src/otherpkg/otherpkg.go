// Package otherpkg checks that the kprobe-ordering rule binds only
// package pagecache.
package otherpkg

import "kprobe"

// Observer is this package's own observer interface.
type Observer interface {
	PageInserted(idx int64)
}

type engine struct {
	obs    []Observer
	probes *kprobe.Registry
}

func (e *engine) fireThenObserveOK(idx int64) {
	// Not pagecache: dispatch-before-hook ordering is not constrained.
	e.probes.Fire("hook", 0, 0)
	for _, o := range e.obs {
		o.PageInserted(idx)
	}
}

//lint:allow observerorder nothing to suppress here // want `unused //lint:allow observerorder directive`
func clean() {}
