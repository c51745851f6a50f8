package obs

import (
	"time"

	"snapbpf/internal/sim"
	"snapbpf/internal/store"
)

// This file implements store.Observer on the Recorder: counters for
// the snapshot distribution tier plus a complete-span trace event per
// remote chunk fetch.

// StoreManifestRegistered implements store.Observer.
func (r *Recorder) StoreManifestRegistered(fn string, m *store.Manifest) {
	r.m.c[cStoreManifests]++
	if r.cfg.Trace {
		r.emit(Event{Name: "store-manifest", Cat: "store", Ph: 'i', Ts: r.eng.Now()},
			argStr("fn", fn), argInt("chunks", int64(len(m.Chunks))),
			argInt("bytes", m.TotalBytes()))
	}
}

// StoreFetchBegin implements store.Observer.
func (r *Recorder) StoreFetchBegin(p *sim.Proc, fn string, id uint64, bytes int64) {
	r.m.c[cStoreFetches]++
	r.m.c[cStoreFetchBytes] += bytes
}

// StoreFetchEnd implements store.Observer.
func (r *Recorder) StoreFetchEnd(p *sim.Proc, fn string, id uint64, bytes int64, retries, spikes int, took time.Duration) {
	r.m.c[cStoreFetchRetries] += int64(retries)
	r.m.c[cStoreFetchSpikes] += int64(spikes)
	if r.cfg.Trace {
		now := r.eng.Now()
		r.emit(Event{Name: "store-fetch", Cat: "store", Ph: 'X',
			Ts: now.Add(-took), Dur: sim.Duration(took), Tid: r.tid(p)},
			argStr("fn", fn), argInt("chunk", int64(id)), argInt("bytes", bytes),
			argInt("retries", int64(retries)))
	}
}

// StoreChunkVerified implements store.Observer.
func (r *Recorder) StoreChunkVerified(fn string, id uint64, ok bool) {}

// StoreChunkHit implements store.Observer.
func (r *Recorder) StoreChunkHit(p *sim.Proc, fn string, id uint64, dedup bool) {
	r.m.c[cStoreHits]++
	if dedup {
		r.m.c[cStoreDedupHits]++
	}
}

// StoreChunkEvicted implements store.Observer.
func (r *Recorder) StoreChunkEvicted(id uint64) {
	r.m.c[cStoreEvictions]++
}
