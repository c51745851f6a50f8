// Package faast implements the Faast baseline (Bai et al., HPDC '24)
// as characterized in §2.1–2.2 of the SnapBPF paper: userfaultfd
// capture and prefetch like REAP, plus a snapshot pre-processing pass
// over the guest kernel allocator's metadata that identifies frames
// free at snapshot time, so faults on them are served with zero pages
// (UFFDIO_ZEROPAGE) instead of stale snapshot reads.
//
// The mechanism is REAP's; Faast is its configuration with the
// free-frame filter (reap.NewFaast).
package faast

import "snapbpf/internal/prefetch/reap"

// Faast is the userfaultfd + allocator-metadata baseline.
type Faast = reap.REAP

// New returns Faast with its default configuration.
func New() *Faast { return reap.NewFaast() }
