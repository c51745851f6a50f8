package cluster

import "fmt"

// RouterKind names a front-end routing policy.
type RouterKind string

// Routing policies.
const (
	// RouterRoundRobin cycles through hosts in index order.
	RouterRoundRobin RouterKind = "roundrobin"
	// RouterLeastLoaded picks the host with the fewest in-flight
	// invocations (lowest index on ties).
	RouterLeastLoaded RouterKind = "leastloaded"
	// RouterAffinity is snapshot-affinity routing: prefer a host with
	// an idle warm sandbox for the function; otherwise the host whose
	// page cache holds the most of the function's snapshot file, so
	// the paper's page-cache dedup pays across requests; otherwise
	// fall back to least-loaded.
	RouterAffinity RouterKind = "affinity"
)

// Routers lists every policy in presentation order.
func Routers() []RouterKind {
	return []RouterKind{RouterRoundRobin, RouterLeastLoaded, RouterAffinity}
}

// ParseRouter maps a CLI string to a RouterKind.
func ParseRouter(s string) (RouterKind, error) {
	switch RouterKind(s) {
	case RouterRoundRobin, RouterLeastLoaded, RouterAffinity:
		return RouterKind(s), nil
	}
	return "", fmt.Errorf("cluster: unknown router %q (want roundrobin, leastloaded, or affinity)", s)
}

// router picks a host index for an invocation of fn. Implementations
// must be deterministic: ties break toward the lowest host index.
type router interface {
	pick(hosts []*host, fn string) int
}

func newRouter(kind RouterKind) (router, error) {
	switch kind {
	case RouterRoundRobin:
		return &roundRobin{}, nil
	case RouterLeastLoaded:
		return leastLoaded{}, nil
	case RouterAffinity:
		return affinity{}, nil
	}
	return nil, fmt.Errorf("cluster: unknown router %q", kind)
}

type roundRobin struct{ next int }

func (r *roundRobin) pick(hosts []*host, fn string) int {
	i := r.next % len(hosts)
	r.next++
	return i
}

type leastLoaded struct{}

func (leastLoaded) pick(hosts []*host, fn string) int {
	best := 0
	for i := 1; i < len(hosts); i++ {
		if hosts[i].active < hosts[best].active {
			best = i
		}
	}
	return best
}

type affinity struct{}

func (affinity) pick(hosts []*host, fn string) int {
	// A parked warm sandbox is the strongest affinity signal: memory
	// is already populated, no restore needed.
	best, bestLoad := -1, 0
	for i, h := range hosts {
		if h.pool.hasIdle(fn) && (best < 0 || h.active < bestLoad) {
			best, bestLoad = i, h.active
		}
	}
	if best >= 0 {
		return best
	}
	// Next best: the host whose page cache holds the most of the
	// function's snapshot file. Strict > keeps ties on the lowest
	// index; among equal residency the less loaded host wins.
	var bestRes int64
	for i, h := range hosts {
		res := h.fns[fn].Env.SnapInode.ResidentPages()
		if res == 0 {
			continue
		}
		switch {
		case best < 0 || res > bestRes:
			best, bestRes, bestLoad = i, res, h.active
		case res == bestRes && h.active < bestLoad:
			best, bestLoad = i, h.active
		}
	}
	if best >= 0 {
		return best
	}
	return leastLoaded{}.pick(hosts, fn)
}
