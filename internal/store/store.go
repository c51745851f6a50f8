package store

import (
	"container/list"
	"fmt"
	"sort"
	"time"

	"snapbpf/internal/faults"
	"snapbpf/internal/sim"
	"snapbpf/internal/units"
)

// Tier is where a function's snapshot chunks start a run.
type Tier int

const (
	// TierLocal is the paper's baseline: the snapshot is on the local
	// SSD and the store is bypassed entirely.
	TierLocal Tier = iota
	// TierWarm starts with every manifest chunk resident in the host
	// chunk cache (a previous instance pulled them).
	TierWarm
	// TierCold starts with an empty chunk cache: every chunk crosses
	// the remote link before its device read can be submitted.
	TierCold
)

// String returns the flag spelling.
func (t Tier) String() string {
	switch t {
	case TierWarm:
		return "warm"
	case TierCold:
		return "cold"
	default:
		return "local"
	}
}

// ParseTier parses a -store flag value. The empty string means local;
// anything else must be an exact spelling.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "", "local":
		return TierLocal, nil
	case "warm":
		return TierWarm, nil
	case "cold":
		return TierCold, nil
	}
	return TierLocal, fmt.Errorf("store: unknown tier %q (valid: local, warm, cold)", s)
}

// Policy is how a run moves chunks from the remote to the host.
type Policy int

const (
	// PolicyDemand fetches a chunk only when a device read needs it.
	PolicyDemand Policy = iota
	// PolicyFull downloads the entire snapshot before the first VM's
	// restore proceeds — the full-download-then-restore baseline.
	PolicyFull
	// PolicyWSLazy fetches the working-set chunks eagerly in
	// first-access order (SnapBPF's captured offsets become the chunk
	// priority plan) and everything else on demand.
	PolicyWSLazy
)

// String returns the flag spelling.
func (p Policy) String() string {
	switch p {
	case PolicyFull:
		return "full"
	case PolicyWSLazy:
		return "wslazy"
	default:
		return "demand"
	}
}

// ParsePolicy parses a -fetch-policy flag value. The empty string
// means demand; anything else must be an exact spelling.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "demand":
		return PolicyDemand, nil
	case "full":
		return PolicyFull, nil
	case "wslazy", "lazy":
		return PolicyWSLazy, nil
	}
	return PolicyDemand, fmt.Errorf("store: unknown fetch policy %q (valid: demand, full, wslazy)", s)
}

// DefaultChunkPages is the manifest chunk size: 1MiB, the object-store
// sweet spot between request count and read amplification.
const DefaultChunkPages = 256

// Params models the remote backend and the host chunk cache.
type Params struct {
	// FirstByte is the per-request latency before the first byte
	// arrives (object-store GET latency).
	FirstByte time.Duration
	// MiBps is the sustained per-host link bandwidth in MiB/s;
	// transfers on one host serialize over this link.
	MiBps int64
	// ChunkPages is the manifest chunk size in pages.
	ChunkPages int64
	// CapacityChunks bounds the host chunk cache (LRU); 0 is
	// unlimited.
	CapacityChunks int
}

// DefaultParams is the S3-standard-class model the locality experiment
// uses: double-digit-millisecond first byte, GiB-class bandwidth.
func DefaultParams() Params {
	return Params{FirstByte: 12 * time.Millisecond, MiBps: 1536, ChunkPages: DefaultChunkPages}
}

// withDefaults fills zero fields from DefaultParams.
func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.FirstByte <= 0 {
		p.FirstByte = d.FirstByte
	}
	if p.MiBps <= 0 {
		p.MiBps = d.MiBps
	}
	if p.ChunkPages <= 0 {
		p.ChunkPages = d.ChunkPages
	}
	return p
}

// transfer returns the link time for a chunk payload.
func (p Params) transfer(bytes int64) time.Duration {
	return time.Duration(bytes) * time.Second / time.Duration(p.MiBps*int64(units.MiB))
}

// Setup selects the distribution tier for a run or a fleet — the
// experiment- and CLI-facing configuration.
type Setup struct {
	Tier   Tier
	Policy Policy
	// Params overrides the backend model; zero fields take defaults.
	Params Params
	// PermuteChunks, when non-zero, seeds a metamorphic shuffle of
	// every manifest's chunk order (results must not move).
	PermuteChunks int64
	// SabotageChunk, when non-zero, forges the manifest hash of chunk
	// index SabotageChunk-1 — a stale-manifest corruption the checker
	// must catch (test knob).
	SabotageChunk int
}

// Observer receives store events. internal/check implements it to
// enforce the store invariants; internal/obs implements it for
// counters and fetch spans. All methods are invoked from simulation
// procs, in deterministic order.
type Observer interface {
	// StoreManifestRegistered fires when a manifest is bound to a host
	// cache. The manifest is shared, not copied: observers must not
	// mutate it.
	StoreManifestRegistered(fn string, m *Manifest)
	// StoreFetchBegin fires when a chunk miss starts a remote fetch.
	StoreFetchBegin(p *sim.Proc, fn string, id uint64, bytes int64)
	// StoreFetchEnd fires when the chunk is resident; retries and
	// spikes are the injected faults absorbed along the way.
	StoreFetchEnd(p *sim.Proc, fn string, id uint64, bytes int64, retries, spikes int, took time.Duration)
	// StoreChunkVerified fires after every fetch with the result of
	// re-hashing the chunk content against its manifest ID.
	StoreChunkVerified(fn string, id uint64, ok bool)
	// StoreChunkHit fires when a needed chunk is already resident;
	// dedup marks hits on chunks another function fetched.
	StoreChunkHit(p *sim.Proc, fn string, id uint64, dedup bool)
	// StoreChunkEvicted fires when the LRU (or a cold-tier drop)
	// removes a resident chunk.
	StoreChunkEvicted(id uint64)
}

// RemoteStats aggregates what the remote backend served — the
// request-priced side of the model.
type RemoteStats struct {
	// Requests and Bytes count every GET served.
	Requests, Bytes int64
	// UniqueChunks counts distinct chunk IDs ever served; DupRequests
	// and DupBytes are re-fetches of a chunk some host already pulled —
	// the traffic a region-level cache would have absorbed.
	UniqueChunks, DupRequests, DupBytes int64
}

// Remote is the shared S3-like backend. One Remote serves every host
// in a fleet, which is what makes cross-host dedup observable.
type Remote struct {
	params Params
	seen   map[uint64]bool
	stats  RemoteStats
}

// NewRemote builds a backend with zero Params fields defaulted.
func NewRemote(params Params) *Remote {
	return &Remote{params: params.withDefaults(), seen: make(map[uint64]bool)}
}

// Params returns the defaulted backend model.
func (r *Remote) Params() Params { return r.params }

// Stats returns the served-request totals.
func (r *Remote) Stats() RemoteStats { return r.stats }

func (r *Remote) served(id uint64, bytes int64) {
	r.stats.Requests++
	r.stats.Bytes += bytes
	if r.seen[id] {
		r.stats.DupRequests++
		r.stats.DupBytes += bytes
	} else {
		r.seen[id] = true
		r.stats.UniqueChunks++
	}
}

// CacheStats aggregates one host cache's traffic.
type CacheStats struct {
	// Fetches counts remote GETs (== chunk misses); FetchBytes their
	// payload sum; Retries and Spikes the injected faults absorbed.
	Fetches, FetchBytes, Retries, Spikes int64
	// Hits counts resident-chunk lookups; DedupHits the subset whose
	// chunk was fetched by a different function.
	Hits, DedupHits int64
	// Evictions counts LRU and drop removals; Manifests the bindings.
	Evictions, Manifests int64
}

type cacheEntry struct {
	id    uint64
	owner string // function whose fetch brought the chunk in
	bytes int64
	elem  *list.Element
}

// HostCache is one host's local-SSD chunk cache plus its link to the
// Remote. All methods must be called from simulation procs of the
// host's engine.
type HostCache struct {
	eng    *sim.Engine
	remote *Remote
	inj    *faults.Injector
	obs    []Observer

	cached   map[uint64]*cacheEntry
	lru      *list.List // front = coldest
	inflight map[uint64]*sim.Waiter
	refs     map[uint64]int64 // manifest references per chunk ID
	linkTail *sim.Waiter      // transfer serialization chain
	stats    CacheStats
}

// NewHostCache builds an empty chunk cache wired to remote. inj may be
// nil (no store faults).
func NewHostCache(eng *sim.Engine, remote *Remote, inj *faults.Injector) *HostCache {
	return &HostCache{
		eng:      eng,
		remote:   remote,
		inj:      inj,
		cached:   make(map[uint64]*cacheEntry),
		lru:      list.New(),
		inflight: make(map[uint64]*sim.Waiter),
		refs:     make(map[uint64]int64),
	}
}

// AddObserver attaches o after the cache's other observers.
func (hc *HostCache) AddObserver(o Observer) { hc.obs = sim.AppendObserver(hc.obs, o) }

// Stats returns the cache totals.
func (hc *HostCache) Stats() CacheStats { return hc.stats }

// CachedChunks returns the resident chunk IDs, sorted.
func (hc *HostCache) CachedChunks() []uint64 {
	ids := make([]uint64, 0, len(hc.cached))
	for id := range hc.cached {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// RefCount returns the number of manifest references to chunk id.
func (hc *HostCache) RefCount(id uint64) int64 { return hc.refs[id] }

// Bind registers a manifest against this host and returns the binding
// that stages device reads of the corresponding snapshot inode. tags
// are the snapshot's page tags, used to verify chunk content against
// the manifest hash on every fetch.
func (hc *HostCache) Bind(m *Manifest, policy Policy, tags []uint64) *Binding {
	b := &Binding{hc: hc, fn: m.Fn, man: m, policy: policy, params: hc.remote.params}
	b.refs = append([]ChunkRef(nil), m.Chunks...)
	sort.Slice(b.refs, func(i, j int) bool { return b.refs[i].Start < b.refs[j].Start })
	b.ok = make([]bool, len(b.refs))
	for i, c := range b.refs {
		b.ok[i] = c.End() <= int64(len(tags)) && c.Start >= 0 &&
			chunkID(tags[c.Start:c.End()]) == c.ID
		hc.refs[c.ID]++
	}
	hc.stats.Manifests++
	for _, o := range hc.obs {
		o.StoreManifestRegistered(m.Fn, m)
	}
	return b
}

// Drop evicts every resident chunk — the cold-tier reset. In-flight
// fetches are unaffected.
func (hc *HostCache) Drop() {
	for hc.lru.Len() > 0 {
		e := hc.lru.Front().Value.(*cacheEntry)
		hc.evict(e)
	}
}

func (hc *HostCache) evict(e *cacheEntry) {
	hc.lru.Remove(e.elem)
	delete(hc.cached, e.id)
	hc.stats.Evictions++
	for _, o := range hc.obs {
		o.StoreChunkEvicted(e.id)
	}
}

// ensure makes chunk ref resident, blocking p until it is. contentOK
// is the binding's precomputed content-vs-manifest verification for
// this chunk. capacity is the cache bound (from the owning binding's
// params; 0 = unlimited).
func (hc *HostCache) ensure(p *sim.Proc, fn string, ref ChunkRef, contentOK bool, params Params) {
	for {
		if e, ok := hc.cached[ref.ID]; ok {
			dedup := e.owner != fn
			hc.stats.Hits++
			if dedup {
				hc.stats.DedupHits++
			}
			hc.lru.MoveToBack(e.elem)
			for _, o := range hc.obs {
				o.StoreChunkHit(p, fn, ref.ID, dedup)
			}
			return
		}
		w, busy := hc.inflight[ref.ID]
		if !busy {
			break
		}
		p.Wait(w)
		// The fetch landed (or the entry was since evicted) — loop to
		// re-classify.
	}

	bytes := int64(units.PagesToBytes(ref.NPages))
	done := hc.eng.NewWaiter()
	hc.inflight[ref.ID] = done
	hc.stats.Fetches++
	hc.stats.FetchBytes += bytes
	for _, o := range hc.obs {
		o.StoreFetchBegin(p, fn, ref.ID, bytes)
	}
	start := p.Now()

	retries, spikes := 0, 0
	for attempt := 0; ; attempt++ {
		fail, spike := hc.inj.StoreOutcome(attempt)
		if spike > 0 {
			spikes++
		}
		p.Sleep(params.FirstByte + spike)
		if !fail {
			break
		}
		retries++
		p.Sleep(faults.Backoff(attempt))
	}

	// Transfers serialize over the host link in fetch order: chain on
	// the previous transfer's completion.
	prev := hc.linkTail
	mine := hc.eng.NewWaiter()
	hc.linkTail = mine
	if prev != nil {
		p.Wait(prev)
	}
	p.Sleep(params.transfer(bytes))
	mine.Fire()

	hc.remote.served(ref.ID, bytes)
	e := &cacheEntry{id: ref.ID, owner: fn, bytes: bytes}
	e.elem = hc.lru.PushBack(e)
	hc.cached[ref.ID] = e
	delete(hc.inflight, ref.ID)
	done.Fire()
	hc.stats.Retries += int64(retries)
	hc.stats.Spikes += int64(spikes)
	for _, o := range hc.obs {
		o.StoreFetchEnd(p, fn, ref.ID, bytes, retries, spikes, p.Now().Sub(start))
	}
	for _, o := range hc.obs {
		o.StoreChunkVerified(fn, ref.ID, contentOK)
	}
	if params.CapacityChunks > 0 {
		for hc.lru.Len() > params.CapacityChunks {
			hc.evict(hc.lru.Front().Value.(*cacheEntry))
		}
	}
}

// Binding stages one (host, function) snapshot's device reads against
// the host chunk cache. It implements pagecache.Stager.
type Binding struct {
	hc     *HostCache
	fn     string
	man    *Manifest
	policy Policy
	refs   []ChunkRef // sorted by Start
	ok     []bool     // per-ref content verification, parallel to refs
	params Params

	planned  bool
	fullDone *sim.Waiter
}

// Policy returns the binding's fetch policy.
func (b *Binding) Policy() Policy { return b.policy }

// chunkAt returns the index of the chunk containing page pg, or -1.
func (b *Binding) chunkAt(pg int64) int {
	i := sort.Search(len(b.refs), func(i int) bool { return b.refs[i].End() > pg })
	if i < len(b.refs) && b.refs[i].Start <= pg {
		return i
	}
	return -1
}

// Stage blocks p until every chunk overlapping the byte range
// [off, off+length) is resident — the demand path every policy falls
// back to. Called by the page cache before submitting device reads.
func (b *Binding) Stage(p *sim.Proc, off, length int64) {
	if length <= 0 {
		return
	}
	first := int64(units.ByteOff(off).PageIdx())
	last := int64(units.ByteOff(off + length - 1).PageIdx())
	i := sort.Search(len(b.refs), func(i int) bool { return b.refs[i].End() > first })
	for ; i < len(b.refs) && b.refs[i].Start <= last; i++ {
		b.hc.ensure(p, b.fn, b.refs[i], b.ok[i], b.params)
	}
}

// Plan receives SnapBPF's captured first-access page order and, under
// the wslazy policy, starts background fetches for the corresponding
// chunks in that priority order. First call wins; later VMs reuse the
// same plan. Other policies ignore the hint.
func (b *Binding) Plan(p *sim.Proc, pages []int64) {
	if b.policy != PolicyWSLazy || b.planned {
		return
	}
	b.planned = true
	seen := make(map[int]bool)
	var order []int
	for _, pg := range pages {
		if i := b.chunkAt(pg); i >= 0 && !seen[i] {
			seen[i] = true
			order = append(order, i)
		}
	}
	for _, i := range order {
		ref, ok := b.refs[i], b.ok[i]
		b.hc.eng.Go("store-plan-fetch", func(fp *sim.Proc) {
			b.hc.ensure(fp, b.fn, ref, ok, b.params)
		})
	}
}

// BeginRestore gates a VM restore on the binding's policy: under full
// download the first caller pulls the entire snapshot and every caller
// waits for it; other policies return immediately.
func (b *Binding) BeginRestore(p *sim.Proc) {
	if b.policy != PolicyFull {
		return
	}
	if b.fullDone == nil {
		done := b.hc.eng.NewWaiter()
		b.fullDone = done
		remaining := len(b.refs)
		if remaining == 0 {
			done.Fire()
		}
		for i := range b.refs {
			ref, ok := b.refs[i], b.ok[i]
			b.hc.eng.Go("store-full-fetch", func(fp *sim.Proc) {
				b.hc.ensure(fp, b.fn, ref, ok, b.params)
				remaining--
				if remaining == 0 {
					done.Fire()
				}
			})
		}
	}
	p.Wait(b.fullDone)
}

// Preload makes every manifest chunk resident through the normal fetch
// path — the warm-tier setup.
func (b *Binding) Preload(p *sim.Proc) {
	for i := range b.refs {
		b.hc.ensure(p, b.fn, b.refs[i], b.ok[i], b.params)
	}
}
