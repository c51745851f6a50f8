// Package pagecache exercises the PageInserted-before-kprobe-dispatch
// rule, in the observer-list form the real cache uses and through a
// single observer value.
package pagecache

import "kprobe"

// Observer receives cache events.
type Observer interface {
	PageInserted(idx int64)
	PageEvicted(idx int64)
}

type cache struct {
	obs    []Observer
	probes *kprobe.Registry
}

// insertWrongOrder reproduces the causal-order bug: the kprobe fires
// before the observers see the insertion, so a recursive prefetch
// insert reaches them out of order.
func (c *cache) insertWrongOrder(idx int64) {
	c.probes.Fire("add_to_page_cache_lru", 1, uint64(idx)) // want `kprobe dispatch precedes the PageInserted observer`
	for _, o := range c.obs {
		o.PageInserted(idx)
	}
}

func (c *cache) insertRightOrderOK(idx int64) {
	for _, o := range c.obs {
		o.PageInserted(idx)
	}
	c.probes.Fire("add_to_page_cache_lru", 1, uint64(idx))
}

// singleObserverWrongOrder: the rule keys on the hook's receiver type,
// not on how the observer was reached.
func (c *cache) singleObserverWrongOrder(o Observer, idx int64) {
	c.probes.Fire("add_to_page_cache_lru", 1, uint64(idx)) // want `kprobe dispatch precedes the PageInserted observer`
	o.PageInserted(idx)
}

func (c *cache) evictThenFireOK(idx int64) {
	// Only PageInserted is ordered against dispatch.
	c.probes.Fire("add_to_page_cache_lru", 1, uint64(idx))
	for _, o := range c.obs {
		o.PageEvicted(idx)
	}
}

func (c *cache) fireAloneOK(idx int64) {
	// Dispatch without observation in the same function is fine; the
	// ordering contract binds only functions doing both.
	c.probes.Fire("add_to_page_cache_lru", 1, uint64(idx))
}

func (c *cache) suppressed(idx int64) {
	c.probes.Fire("add_to_page_cache_lru", 1, uint64(idx)) //lint:allow observerorder golden test of the suppression path
	for _, o := range c.obs {
		o.PageInserted(idx)
	}
}

//lint:allow observerorder this directive covers no diagnostic // want `unused //lint:allow observerorder directive`
func clean() {}
